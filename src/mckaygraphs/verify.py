"""Executable verification of the tree/forest classification machinery.

Every check recomputes both sides of an identity through independent paths
(character sums vs. matrix traces vs. centralizer restrictions; shape
templates vs. spectral markings) and reports one record per check.  The
fixture lists and the order-<=256 sweep are fixed, so reports are
deterministic.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from functools import cached_property
from math import lcm
from typing import Callable, Optional

import numpy as np

from .chartable import (
    CharacterTable,
    CharVector,
    FaithfulSelfDualMinDim,
    InternalNonInteger,
    Irrep,
    Rho,
    compute_character_table,
    is_faithful,
    is_self_dual,
    kernel_classes,
    normal_subgroups,
    rho_from_class_function,
)
from .catalog import build_group, derive_cyclic_action, derive_elemab_action
from .cyclotomic import convolve, embed, gram, reduced
from .graphs import (
    ComponentDecomposition,
    McKayGraph,
    build_mckay_graph,
    decompose_components,
    disjoint_union,
    graph_isomorphic,
    principal_component_isomorphism_check,
    trace_and_total,
)
from .groups import (
    BinaryDihedral,
    BinaryPoly,
    ConjugacyData,
    Cyclic,
    Dihedral,
    ElemAb,
    Extraspecial2,
    FiniteGroup,
    GroupSpec,
    Heisenberg,
    Product,
    Semidirect,
    SubgroupNotFound,
    build_semidirect,
    conjugacy,
    induced_group,
    spec_text,
    subgroup_from_elements,
    quotient_group,
    tables_isomorphic,
)
from .modp import exact_dtype, exact_matmul
from .shapes import (
    ShapeLabel,
    bipartition,
    circuit_count,
    components_strongly_connected,
    pf_integer_vector_check,
)


class PreconditionViolated(Exception):
    pass


class ClassificationViolated(Exception):
    """A tree/forest McKay graph escaped the classification; highest severity."""


@dataclass
class CheckRecord:
    check_id: str
    claim: str
    inputs: str
    expected: str
    observed: str
    passed: bool
    seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "id": self.check_id,
            "claim": self.claim,
            "inputs": self.inputs,
            "expected": self.expected,
            "observed": self.observed,
            "passed": self.passed,
            "seconds": round(self.seconds, 4),
        }


class _Recorder(list):
    """CheckRecords with a running clock.  add() builds a record whose seconds
    run from the previous record (or from the recorder's creation), so each
    record of a multi-record case is timed by its own work alone; appending a
    record that timed itself restarts the clock."""

    def __init__(self) -> None:
        super().__init__()
        self.t0 = time.perf_counter()

    def append(self, record: CheckRecord) -> None:
        super().append(record)
        self.t0 = time.perf_counter()

    def add(
        self, check_id: str, claim: str, inputs: str, expected: str, observed: str, passed: bool
    ) -> CheckRecord:
        record = CheckRecord(
            check_id, claim, inputs, expected, observed, passed, time.perf_counter() - self.t0
        )
        self.append(record)
        return record


@dataclass
class VerificationReport:
    suite: str
    records: list[CheckRecord]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [r.to_dict() for r in self.records],
        }

    def render_text(self) -> str:
        lines = []
        for r in self.records:
            mark = "PASS" if r.passed else "FAIL"
            lines.append(
                f"[{mark}] {r.check_id}: {r.claim} | {r.inputs} | "
                f"expected {r.expected} | observed {r.observed} ({r.seconds:.2f}s)"
            )
        status = "PASS" if self.passed else "FAIL"
        lines.append(f"suite {self.suite}: {status} ({len(self.records)} checks)")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# fixture construction with per-process caching


@dataclass
class FixtureContext:
    spec: GroupSpec
    group: FiniteGroup
    cd: ConjugacyData
    ct: CharacterTable
    table_seconds: float  # build + conjugacy + table, measured once

    @cached_property
    def graph(self) -> McKayGraph:
        """The tautological graph, of the least faithful self-dual irreducible,
        built once and shared with its component labels by every case."""
        return build_mckay_graph(self.ct, FaithfulSelfDualMinDim())


_CACHE: dict[str, FixtureContext] = {}


def fixture(spec: GroupSpec) -> FixtureContext:
    key = spec_text(spec)
    ctx = _CACHE.get(key)
    if ctx is None:
        t0 = time.perf_counter()
        group = build_group(spec)
        cd = conjugacy(group)
        ct = compute_character_table(group, cd)
        dt = time.perf_counter() - t0
        ctx = FixtureContext(spec=spec, group=group, cd=cd, ct=ct, table_seconds=dt)
        _CACHE[key] = ctx
    return ctx


# ---------------------------------------------------------------------------
# exact cyclotomic sums: canonical coefficient rows, multiplied as rows of
# Z[x]/(x^e - 1)


def _integers(rows: np.ndarray, e: int) -> Optional[np.ndarray]:
    """The rational integers that rows of Z[x]/(x^e - 1) stand for, or None
    (equal to no array) when one of them is not rational."""
    canon = reduced(rows, e)
    return None if canon[..., 1:].any() else canon[..., 0]


def _char_power_sums(chi: np.ndarray, e: int, kmax: int) -> list[int]:
    """sum over classes of chi(g)^k for k = 1..kmax, as rational integers,
    for chi given at order e, from one chain of powers chi^k = chi^(k-1) chi,
    each power reduced so that the next product pairs at most phi(e) powers
    of x from each side."""
    power, sums = chi, []
    for k in range(1, kmax + 1):
        if k > 1:
            power = reduced(convolve(power, chi, e), e)
        total = power.sum(axis=0, dtype=exact_dtype(len(power) * int(np.abs(power).max())))
        assert not total[1:].any(), "power sum over classes must be a rational integer"
        sums.append(int(total[0]))
    return sums


def _centralizer_endo_dims(ctx: FixtureContext, chi) -> list[int]:
    """dim End_{C(x)}(rho restricted) for a representative x of every class,
    by the exact inner product over C(x): sum_l c_l chi(l) chi(l^-1) / |C(x)|,
    where c_l counts the elements of class l that commute with x; chi is
    given at the table's exponent."""
    g, cd, r, e = ctx.group, ctx.cd, ctx.ct.r, ctx.ct.exponent
    k, y = np.nonzero(g.mul[cd.reps, :] == g.mul[:, cd.reps].T)
    counts = np.bincount(k * r + cd.class_of[y], minlength=r * r).reshape(r, r)
    weighted = convolve(chi, chi[cd.inverse_class], e, lambda u, v: counts @ (u * v), g.order)
    totals = _integers(weighted, e)
    orders = counts.sum(axis=1)
    assert totals is not None and not np.any(totals % orders)
    return (totals // orders).tolist()


def verify_orthogonality(ct: CharacterTable) -> bool:
    """Exact row and column orthogonality of the lifted table."""
    r, n = ct.r, ct.group.order
    h = np.array(ct.conj.sizes, dtype=np.int64)
    inv = ct.conj.inverse_class
    table, e = ct.rows[ct.index], ct.exponent
    rows = _integers(gram(table, table[:, inv], e, h), e)
    cols = _integers(gram(table.swapaxes(0, 1), table[:, inv].swapaxes(0, 1), e, np.ones(r)), e)
    orthogonal_rows = np.array_equal(rows, n * np.eye(r, dtype=np.int64))
    return orthogonal_rows and np.array_equal(cols, np.diag(n // h))


def center_criterion_holds(ctx: FixtureContext) -> bool:
    """Z(G) = classes where |chi| = deg for every irreducible, exactly.

    chi(k) is a sum of deg roots of unity, so |chi(k)|^2 = chi(k) chi(k^-1)
    reaches deg^2 exactly when they all agree; one elementwise product of the
    table with its inverse-class columns decides every entry."""
    ct, cd = ctx.ct, ctx.cd
    central_classes = {int(cd.class_of[z]) for z in cd.center}
    table, e = ct.rows[ct.index], ct.exponent
    canon = reduced(convolve(table, table[:, cd.inverse_class], e), e)
    deg = np.array(ct.degrees, dtype=np.int64)
    attained = ~canon[..., 1:].any(axis=-1) & (canon[..., 0] == (deg * deg)[:, None])
    return set(np.flatnonzero(attained.all(axis=0)).tolist()) == central_classes


def _power_traces(a: np.ndarray, kmax: int) -> list[int]:
    """tr(A^k) for k = 1..kmax from one chain of products A^k = A^(k-1) A; A is
    nonnegative, so n^2 max(A^(k-1)) max(A) bounds all of the next product."""
    n = a.shape[0]
    power, traces = a, [int(np.trace(a))]
    for _ in range(kmax - 1):
        power = exact_matmul(power, a, n * n * int(power.max()) * int(a.max()))
        traces.append(int(np.trace(power)))
    return traces


# ---------------------------------------------------------------------------
# the individual checks


def verify_trace_identity(ctx: FixtureContext, graph: McKayGraph, kmax: int) -> CheckRecord:
    records = _Recorder()
    if not 1 <= kmax <= ctx.ct.r:
        raise PreconditionViolated("kmax must lie in [1, class count]")
    small = graph.n_vertices <= 40
    expected = _char_power_sums(graph.rho.chi, graph.rho.order, kmax)
    observed = [
        (t, circuit_count(graph.matrix, k) if small else t)
        for k, t in enumerate(_power_traces(graph.matrix, kmax), 1)
    ]
    ok = all(s == t == c for s, (t, c) in zip(expected, observed))
    return records.add(
        check_id=f"trace[{spec_text(ctx.spec)}]",
        claim=f"class power sums of rho equal circuit counts, k=1..{kmax}",
        inputs=spec_text(ctx.spec),
        expected=str(expected),
        observed=str(observed),
        passed=ok,
    )


def verify_edge_count_identity(ctx: FixtureContext, graph: McKayGraph) -> CheckRecord:
    records = _Recorder()
    if not (graph.undirected and graph.loopless):
        raise PreconditionViolated("edge-count identity needs an undirected loopless graph")
    s1 = _char_power_sums(graph.rho.chi, graph.rho.order, 2)[1]
    s2 = graph.edge_count_doubled()
    s3 = sum(_centralizer_endo_dims(ctx, graph.rho.chi))
    vals = [s1, s2, s3]
    tree = graph.tree
    expected = f"three routes agree{f', tree value {2 * (ctx.ct.r - 1)}' if tree else ''}"
    ok = s1 == s2 == s3
    if tree:
        ok = ok and s1 == 2 * (ctx.ct.r - 1)
    return records.add(
        check_id=f"edges[{spec_text(ctx.spec)}]",
        claim="sum chi^2 = doubled edge count = centralizer endomorphism sum",
        inputs=spec_text(ctx.spec),
        expected=expected,
        observed=str(vals),
        passed=ok,
    )


def verify_centralizer_endo(ctx: FixtureContext, graph: McKayGraph) -> CheckRecord:
    records = _Recorder()
    if not graph.tree:
        raise PreconditionViolated("centralizer endomorphism check needs a tree graph")
    cd = ctx.cd
    central_classes = {int(cd.class_of[z]) for z in cd.center}
    bad = []
    for k, dim_end in enumerate(_centralizer_endo_dims(ctx, graph.rho.chi)):
        want = 1 if k in central_classes else 2
        if dim_end != want:
            bad.append((k, dim_end, want))
    return records.add(
        check_id=f"endo[{spec_text(ctx.spec)}]",
        claim="restriction to a centralizer has endomorphism dimension 2 off-center, 1 on it",
        inputs=spec_text(ctx.spec),
        expected="2 per non-central class, 1 per central class",
        observed="all match" if not bad else f"mismatches {bad}",
        passed=not bad,
    )


def verify_newton_spectrum(ctx: FixtureContext, graph: McKayGraph) -> CheckRecord:
    records = _Recorder()
    r = ctx.ct.r
    pairs = zip(_char_power_sums(graph.rho.chi, graph.rho.order, r), _power_traces(graph.matrix, r))
    bad = [(k, s, t) for k, (s, t) in enumerate(pairs, 1) if s != t]
    return records.add(
        check_id=f"newton[{spec_text(ctx.spec)}]",
        claim=f"power traces match character sums for k=1..{r} (eigenvalue multiset)",
        inputs=spec_text(ctx.spec),
        expected="equality for all k",
        observed="all match" if not bad else f"mismatches {bad}",
        passed=not bad,
    )


def verify_bipartite_criterion(ctx: FixtureContext, graph: McKayGraph) -> CheckRecord:
    records = _Recorder()
    rho = graph.rho
    if not (rho.irreducible and is_faithful(ctx.ct, rho.chi) and is_self_dual(ctx.ct, rho.chi)):
        raise PreconditionViolated("bipartite criterion needs irreducible faithful self-dual rho")
    z = len(ctx.cd.center)
    bip = bipartition(graph.matrix) is not None
    ok = z <= 2 and (bip == (z == 2))
    return records.add(
        check_id=f"bipartite[{spec_text(ctx.spec)}]",
        claim="graph bipartite iff the center has order 2 (center order is at most 2)",
        inputs=spec_text(ctx.spec),
        expected="|Z| <= 2 and bipartite <=> |Z| = 2",
        observed=f"|Z|={z}, bipartite={bip}",
        passed=ok,
    )


def verify_sum_of_squares(decomp: ComponentDecomposition, label: str) -> CheckRecord:
    records = _Recorder()
    g_order = decomp.graph.ct.group.order
    n_order = len(decomp.kernel)
    bad = []
    for c in decomp.components:
        lhs = sum(d * d for d in c.dims)
        rhs = (g_order // n_order) * c.orbit_rep_degree**2 * c.orbit_size
        if lhs != rhs:
            bad.append((c.vertices, lhs, rhs))
    return records.add(
        check_id=f"sumsq[{label}]",
        claim="per component: sum of squared dimensions = |G/N| * s^2 * |T|",
        inputs=label,
        expected="equality per component",
        observed="all match" if not bad else f"mismatches {bad}",
        passed=not bad,
    )


def _power_of_four_exponent(m: int) -> Optional[int]:
    n = 0
    while m > 1:
        if m % 4:
            return None
        m //= 4
        n += 1
    return n


def _star_exponent(label: ShapeLabel) -> Optional[int]:
    """Spine-count exponent when the label is a 4^n-spine star (D~4 counts as n=1)."""
    if label.kind == "hedgehog":
        return _power_of_four_exponent(label.index)
    if label.kind == "affine_d" and label.hedgehog_alias:
        return 1
    return None


def verify_tree_theorem(ctx: FixtureContext, graph: McKayGraph) -> CheckRecord:
    records = _Recorder()
    if not graph.tree:
        raise PreconditionViolated("tree theorem applies to tree graphs")
    ct, cd, g = ctx.ct, ctx.cd, ctx.group
    rho = graph.rho
    if not (rho.irreducible and is_faithful(ct, rho.chi) and is_self_dual(ct, rho.chi)):
        raise ClassificationViolated(
            f"{spec_text(ctx.spec)}: tree graph with rho not irreducible faithful self-dual"
        )
    label = graph.shape
    case = None
    if rho.dim == 2 and label.kind in ("affine_d", "affine_e"):
        ok, a = pf_integer_vector_check(graph.matrix, graph.dims, rho.dim, label)
        if ok and a == 1 and g.order == label.dynkin_group_order:
            case = f"dim-2 {label.short()}"
    if case is None:
        n = _star_exponent(label) if label.kind in ("hedgehog", "affine_d") else None
        if n is not None and rho.dim == 2**n and g.order == 2 ** (1 + 2 * n):
            central = set(cd.center)
            squares_central = set(np.diagonal(g.mul).tolist()) <= central  # x^2 = mul[x, x]
            if len(central) == 2 and squares_central:
                case = f"extraspecial star 4^{n}"
    if case is None:
        raise ClassificationViolated(
            f"{spec_text(ctx.spec)}: tree {label.short()} with dim(rho)={rho.dim} "
            f"escapes the classification"
        )
    return records.add(
        check_id=f"tree[{spec_text(ctx.spec)}|dim{rho.dim}]",
        claim="tree graphs come from the two-dimensional affine list or extraspecial stars",
        inputs=f"{spec_text(ctx.spec)}, |G|={g.order}",
        expected="affine D/E with a=1 matching |G|, or a 4^n star over an extraspecial group",
        observed=case,
        passed=True,
    )


def verify_forest_theorem(ctx: FixtureContext, graph: McKayGraph) -> CheckRecord:
    records = _Recorder()
    if not graph.forest:
        raise PreconditionViolated("forest theorem applies to forest graphs")
    ct = ctx.ct
    rho = graph.rho
    if not (rho.irreducible and is_self_dual(ct, rho.chi)):
        raise ClassificationViolated(
            f"{spec_text(ctx.spec)}: forest with rho not irreducible self-dual"
        )
    # |N| sums the sizes of the classes in the kernel of rho: no subgroup is built
    kernel_order = int(kernel_classes(ct, rho.chi) @ np.array(ct.conj.sizes, dtype=np.int64))
    quotient_order = ctx.group.order // kernel_order
    labels = graph.component_shapes
    star_exp: Optional[int] = None
    for label in labels:
        if label.kind == "affine_e" or (label.kind == "affine_d" and not label.hedgehog_alias):
            continue
        n = _star_exponent(label)
        if n is None:
            raise ClassificationViolated(
                f"{spec_text(ctx.spec)}: forest component {label.short()} is not affine D/E "
                f"or a 4^n star"
            )
        if n != 1:
            star_exp = n
    if star_exp is not None:
        # equal blocks are equal adjacencies: only the distinct ones are compared
        first, *others = graph.component_blocks[0]
        if not all(graph_isomorphic(first, block) for block in others):
            raise ClassificationViolated(
                f"{spec_text(ctx.spec)}: 4^{star_exp} star present but components differ"
            )
    for label in labels:
        if label.kind in ("affine_d", "affine_e"):
            if quotient_order % label.dynkin_group_order:
                raise ClassificationViolated(
                    f"{spec_text(ctx.spec)}: |G/N|={quotient_order} not divisible by "
                    f"{label.dynkin_group_order} for component {label.short()}"
                )
    return records.add(
        check_id=f"forest[{spec_text(ctx.spec)}|dim{rho.dim}]",
        claim="forest components are affine D/E or 4^n stars; star forests are uniform; "
        "|G/N| divisible by each matched group order",
        inputs=f"{spec_text(ctx.spec)}, components={len(labels)}",
        expected="no classification escape",
        observed=",".join(label.short() for label in labels),
        passed=True,
    )


# ---------------------------------------------------------------------------
# fixtures


ADE_FIXTURES: list[GroupSpec] = [BinaryDihedral(n) for n in range(2, 7)] + [
    BinaryPoly("T"),
    BinaryPoly("O"),
    BinaryPoly("I"),
]
DIHEDRAL_EVEN = [Dihedral(n) for n in (4, 6, 8, 10, 12)]
DIHEDRAL_ODD = [Dihedral(n) for n in (3, 5, 7, 9)]
EXTRASPECIAL = [Extraspecial2(n, v) for n in range(0, 5) for v in ("+", "-")]

IDENTITY_FIXTURES: list[GroupSpec] = (
    ADE_FIXTURES + DIHEDRAL_EVEN + DIHEDRAL_ODD + EXTRASPECIAL
)

SWEEP_SPECS: list[GroupSpec] = (
    [Cyclic(n) for n in range(1, 17)]
    + [Dihedral(n) for n in range(2, 13)]
    + [BinaryDihedral(n) for n in range(2, 9)]
    + [BinaryPoly(k) for k in "TOI"]
    + [Extraspecial2(n, v) for n in range(0, 4) for v in "+-"]
    + [Heisenberg(2, 1), Heisenberg(2, 2), Heisenberg(2, 3), Heisenberg(3, 1), Heisenberg(5, 1)]
    + [ElemAb(2, k) for k in range(1, 7)]
    + [ElemAb(3, 2), ElemAb(3, 3), ElemAb(5, 2)]
    + [
        Product(BinaryPoly("T"), Cyclic(3)),
        Product(BinaryDihedral(2), Cyclic(2)),
        Product(Extraspecial2(2, "+"), Cyclic(2)),
        Product(Dihedral(4), Cyclic(3)),
        Product(Dihedral(5), Cyclic(2)),
    ]
    + [
        Semidirect(Dihedral(8), Cyclic(3)),
        Semidirect(Dihedral(12), Cyclic(3)),
        Semidirect(BinaryPoly("T"), ElemAb(2, 2)),
        Semidirect(BinaryPoly("O"), Cyclic(3)),
        Semidirect(BinaryPoly("O"), ElemAb(2, 2)),
    ]
)


@dataclass(frozen=True)
class ConstructionFixture:
    name: str
    gspec: GroupSpec
    h_order: int
    h_nonabelian: Optional[bool]
    kernel: GroupSpec
    expected_shapes: tuple[str, str]  # sorted short labels
    expected_vertex_counts: tuple[int, int]  # sorted
    stabilizer_order: int  # of a nontrivial kernel character; h_order iff G/H acts freely


CONSTRUCTIONS = [
    ConstructionFixture(
        "dih8xC3", Dihedral(8), 8, True, Cyclic(3), ("D~4*", "D~6"), (5, 7), 8
    ),
    ConstructionFixture(
        "dih12xC3", Dihedral(12), 12, True, Cyclic(3), ("D~5", "D~8"), (6, 9), 12
    ),
    ConstructionFixture(
        "btxF4", BinaryPoly("T"), 8, None, ElemAb(2, 2), ("D~4*", "E~6"), (5, 7), 8
    ),
    ConstructionFixture(
        "boxC3", BinaryPoly("O"), 24, None, Cyclic(3), ("E~6", "E~7"), (7, 8), 24
    ),
    # The twist acts through BO/Q8 = S_3 = GL_2(F_2), transitively but not freely
    # on the 3 nontrivial characters of F_2^2: by orbit-stabilizer a character's
    # stabilizer has order 48/3 = 16 (the binary dihedral group of order 16), not
    # 8.  Its McKay graph is D~6, so the non-principal component is D~6 with dims
    # scaled by the index 3, sum(dim^2) = 48^2/16 = 144; a scaled D~4 star would
    # need 8a^2 = 144, which has no integer solution.
    ConstructionFixture(
        "boxF4", BinaryPoly("O"), 8, None, ElemAb(2, 2), ("D~6", "E~7"), (7, 8), 16
    ),
]


def designated_normal_subgroup(
    ct: CharacterTable, order: int, nonabelian: Optional[bool] = None
) -> np.ndarray:
    subs = [s for s in normal_subgroups(ct, order) if len(s) == order]
    if nonabelian is not None:
        subs = [s for s in subs if induced_group(ct.group, s).is_abelian() != nonabelian]
    if not subs:
        raise SubgroupNotFound(f"no normal subgroup of order {order} in {ct.group.carrier}")
    return subs[0]


def pullback_rho(ct_big: CharacterTable, small_class_of, nk: int, rho_small: Rho) -> Rho:
    """rho of the pair-layout quotient (g,k) -> g, pulled back to the big group."""
    at_small = small_class_of[np.asarray(ct_big.conj.reps) // nk]
    return rho_from_class_function(ct_big, rho_small.chi[at_small], rho_small.order)


def _exact_multiplicities(ct: CharacterTable, chi: np.ndarray, order: int) -> tuple[int, ...]:
    """<chi, psi> = (1/|G|) sum_k h_k chi(k) psi(k^-1) for every psi in Irr(G),
    for chi given at `order`, as exact cyclotomic sums at the lcm of the
    orders: the oracle for the modular `multiplicities`."""
    cd, n = ct.conj, ct.group.order
    e = lcm(ct.exponent, order)
    table = embed(ct.rows, ct.exponent, e)[ct.index]
    totals = _integers(gram(embed(chi, order, e)[None], table[:, cd.inverse_class], e, cd.sizes), e)
    if totals is None or np.any(totals % n):
        raise InternalNonInteger("inner product is not a rational integer")
    return tuple((totals[0] // n).tolist())


def restricted_graph(
    ct: CharacterTable, sub: np.ndarray, rho: Rho
) -> tuple[McKayGraph, CharacterTable]:
    """Graph of the restriction of rho, decomposed exactly, so that it stays
    independent of the modular table."""
    sct = compute_character_table(induced_group(ct.group, sub))
    chi = rho.chi[ct.conj.class_of[sub[sct.conj.reps]]]
    return build_mckay_graph(sct, CharVector(_exact_multiplicities(sct, chi, rho.order))), sct


def dual_vector_stabilizer(
    g: FiniteGroup, kernel_group: FiniteGroup, action: list[np.ndarray]
) -> np.ndarray:
    """Stabilizer in G of one nontrivial character of the abelian kernel."""
    ct_k = compute_character_table(kernel_group)
    cd_k = ct_k.conj
    xi = next(i for i in range(ct_k.r) if i != ct_k.trivial_index)
    row = ct_k.index[xi]
    # row x of the gather is the character moved by x, read off its index
    perms = np.array([action[x] for x in g.inv.tolist()])
    moved = row[cd_k.class_of[perms[:, cd_k.reps]]]
    return subgroup_from_elements(g, np.flatnonzero((moved == row).all(axis=1)))


def build_construction(fx: ConstructionFixture):
    """Assemble G' = G x| K for a designated normal H, with S(rho) resolved."""
    ctx = fixture(fx.gspec)
    rho = ctx.graph.rho
    H = designated_normal_subgroup(ctx.ct, fx.h_order, fx.h_nonabelian)
    if isinstance(fx.kernel, Cyclic):
        action = derive_cyclic_action(ctx.group, fx.kernel.n, H)
    else:
        action = derive_elemab_action(ctx.group, fx.kernel.p, fx.kernel.n, H)
    K = build_group(fx.kernel)
    gp = build_semidirect(ctx.group, K, action, carrier=f"{fx.name}")
    cdp = conjugacy(gp)
    ctp = compute_character_table(gp, cdp)
    rho_p = pullback_rho(ctp, ctx.cd.class_of, K.order, rho)
    graph = build_mckay_graph(ctp, rho_p)
    decomp = decompose_components(graph)
    return ctx, rho, H, K, action, gp, cdp, ctp, graph, decomp


def verify_construction_531(fx: ConstructionFixture) -> list[CheckRecord]:
    records = _Recorder()
    ctx, rho, H, K, action, gp, cdp, ctp, graph, decomp = build_construction(fx)

    count_ok = len(decomp.components) == len(decomp.orbits) == 2
    records.add(
        check_id=f"construction[{fx.name}]:components",
        claim="component count equals the number of kernel-character orbits",
        inputs=f"{fx.name}, |G'|={gp.order}",
        expected="2 components, 2 orbits",
        observed=f"{len(decomp.components)} components, {len(decomp.orbits)} orbits",
        passed=count_ok,
    )

    stab = dual_vector_stabilizer(ctx.group, K, action)
    s_graph, _ = restricted_graph(ctx.ct, stab, rho)
    target = disjoint_union([ctx.graph.matrix, s_graph.matrix])
    iso = graph_isomorphic(graph.matrix, target)
    records.add(
        check_id=f"construction[{fx.name}]:union",
        claim="twisted-product graph equals the disjoint union over G and the "
        "stabilizer of a nontrivial kernel character",
        inputs=f"{fx.name}, stabilizer order {len(stab)}",
        expected="isomorphic",
        observed="isomorphic" if iso else "NOT isomorphic",
        passed=iso,
    )

    same = "equal to" if np.array_equal(stab, H) else "not equal to"
    records.add(
        check_id=f"construction[{fx.name}]:stabilizer",
        claim="the stabilizer of a nontrivial kernel character has the stated order",
        inputs=f"{fx.name}, H order {len(H)}",
        expected=f"order {fx.stabilizer_order}",
        observed=f"order {len(stab)}, {same} H",
        passed=len(stab) == fx.stabilizer_order,
    )

    shapes = tuple(sorted(c.shape.short() for c in decomp.components))
    counts = tuple(sorted(len(c.vertices) for c in decomp.components))
    records.add(
        check_id=f"construction[{fx.name}]:shapes",
        claim="component shapes and vertex counts match the stated pair",
        inputs=fx.name,
        expected=f"{fx.expected_shapes} with {fx.expected_vertex_counts} vertices",
        observed=f"{shapes} with {counts} vertices",
        passed=shapes == fx.expected_shapes and counts == fx.expected_vertex_counts,
    )

    records.append(verify_sum_of_squares(decomp, fx.name))

    quotient_order = gp.order // len(decomp.kernel)
    bad_div = []
    for label in graph.component_shapes:
        if label.kind in ("affine_d", "affine_e"):
            if quotient_order % label.dynkin_group_order:
                bad_div.append((label.short(), label.dynkin_group_order))
    records.add(
        check_id=f"construction[{fx.name}]:divisibility",
        claim="|G/N| is divisible by the group order matched to each affine component",
        inputs=f"{fx.name}, |G/N|={quotient_order}",
        expected="all divisible",
        observed="all divisible" if not bad_div else f"failures {bad_div}",
        passed=not bad_div,
    )

    big_ctx = FixtureContext(
        spec=fx.gspec, group=gp, cd=cdp, ct=ctp, table_seconds=0.0
    )
    try:
        records.append(verify_forest_theorem(big_ctx, graph))
    except ClassificationViolated as exc:  # pragma: no cover - must not happen
        records.add(
            check_id=f"forest[{fx.name}]",
            claim="forest classification",
            inputs=fx.name,
            expected="no classification escape",
            observed=str(exc),
            passed=False,
        )
    records[-1].check_id = f"construction[{fx.name}]:forest-theorem"
    return records


def verify_normal_tower() -> list[CheckRecord]:
    records = _Recorder()
    ctx = fixture(BinaryPoly("O"))
    bo = ctx.group
    q8 = build_group(BinaryDihedral(2))
    bt = build_group(BinaryPoly("T"))
    sub8 = designated_normal_subgroup(ctx.ct, 8)
    sub24 = designated_normal_subgroup(ctx.ct, 24)
    g8, g24 = induced_group(bo, sub8), induced_group(bo, sub24)
    records.add(
        check_id="tower:subgroups",
        claim="the octahedral double cover contains normal copies of the quaternion and "
        "tetrahedral double-cover subgroups",
        inputs="binary:O",
        expected="orders 8 and 24, isomorphic to the expected groups",
        observed=f"orders {len(sub8)},{len(sub24)}; iso {tables_isomorphic(g8, q8)},"
        f"{tables_isomorphic(g24, bt)}",
        passed=tables_isomorphic(g8, q8) and tables_isomorphic(g24, bt),
    )
    q1, _ = quotient_group(bo, sub24)
    records.add(
        check_id="tower:BO/BT",
        claim="quotient by the tetrahedral subgroup has order 2",
        inputs="binary:O",
        expected="order 2",
        observed=f"order {q1.order}",
        passed=q1.order == 2,
    )
    q2, _ = quotient_group(bo, sub8)
    records.add(
        check_id="tower:BO/Q8",
        claim="quotient by the quaternion subgroup is nonabelian of order 6",
        inputs="binary:O",
        expected="order 6, nonabelian",
        observed=f"order {q2.order}, abelian={q2.is_abelian()}",
        passed=q2.order == 6 and not q2.is_abelian(),
    )
    inner8 = designated_normal_subgroup(compute_character_table(g24), 8)
    q3, _ = quotient_group(g24, inner8)
    records.add(
        check_id="tower:BT/Q8",
        claim="the quaternion subgroup sits inside the tetrahedral one with cyclic quotient "
        "of order 3",
        inputs="binary:O",
        expected="order 3",
        observed=f"order {q3.order}, abelian={q3.is_abelian()}",
        passed=q3.order == 3 and q3.is_abelian(),
    )
    return records


# ---------------------------------------------------------------------------
# suite cases


def _case_identities(spec: GroupSpec) -> list[CheckRecord]:
    ctx = fixture(spec)
    graph = ctx.graph
    records = _Recorder()
    records.append(verify_trace_identity(ctx, graph, min(ctx.ct.r, 6)))
    if graph.undirected and graph.loopless:
        records.append(verify_edge_count_identity(ctx, graph))
    if graph.tree:
        records.append(verify_centralizer_endo(ctx, graph))
    if ctx.ct.r <= 12:
        records.append(verify_newton_spectrum(ctx, graph))
    orthogonal = verify_orthogonality(ctx.ct)
    records.add(
        check_id=f"orthogonality[{spec_text(spec)}]",
        claim="exact row and column orthogonality of the character table",
        inputs=spec_text(spec),
        expected="orthogonal",
        observed="orthogonal" if orthogonal else "violated",
        passed=orthogonal,
    )
    ok_center = center_criterion_holds(ctx)
    records.add(
        check_id=f"center[{spec_text(spec)}]",
        claim="center = classes where every character attains its degree in absolute value",
        inputs=spec_text(spec),
        expected="criterion matches the conjugacy center",
        observed="matches" if ok_center else "differs",
        passed=ok_center,
    )
    strong = components_strongly_connected(graph.matrix)
    records.add(
        check_id=f"strongcomp[{spec_text(spec)}]",
        claim="weak components of the multiplicity graph are strongly connected",
        inputs=spec_text(spec),
        expected="coincide",
        observed="coincide" if strong else "differ",
        passed=strong,
    )
    return records


def _case_ade(spec: GroupSpec, expected_index: int, expected_order: int) -> list[CheckRecord]:
    ctx = fixture(spec)
    records = _Recorder()
    graph = ctx.graph
    label = graph.shape
    kind = "affine_d" if isinstance(spec, BinaryDihedral) else "affine_e"
    ok = (
        label.kind == kind
        and label.index == expected_index
        and ctx.group.order == expected_order
        and label.dynkin_group_order == expected_order
        and graph.tree
    )
    okpf, a = pf_integer_vector_check(graph.matrix, graph.dims, graph.rho.dim, label)
    ok = ok and okpf and a == 1
    records.add(
        check_id=f"ade[{spec_text(spec)}]",
        claim="tautological graph is the expected affine diagram with matching group order",
        inputs=f"{spec_text(spec)}, |G|={ctx.group.order}",
        expected=f"{kind[-1].upper()}~{expected_index}, order {expected_order}, marking a=1",
        observed=f"{label.short()}, order {ctx.group.order}, a={a}",
        passed=ok,
    )
    if isinstance(spec, BinaryPoly) and spec.kind == "I":
        records.add(
            check_id="runtime[binary:I]",
            claim="icosahedral double-cover table computes within budget",
            inputs="binary:I",
            expected="< 30 s",
            observed=f"{ctx.table_seconds:.2f} s",
            passed=ctx.table_seconds < 30.0,
        )
    return records


_E_LABELS = {
    "T": (6, 24, [1, 1, 1, 2, 2, 2, 3]),
    "O": (7, 48, [1, 1, 2, 2, 2, 3, 3, 4]),
    "I": (8, 120, [1, 2, 2, 3, 3, 4, 4, 5, 6]),
}


def _case_exceptional_labels(kind: str) -> list[CheckRecord]:
    records = _Recorder()
    idx, order, dims = _E_LABELS[kind]
    ctx = fixture(BinaryPoly(kind))
    graph = ctx.graph
    records.add(
        check_id=f"labels[binary:{kind}]",
        claim="vertex dimensions match the affine diagram markings",
        inputs=f"binary:{kind}",
        expected=str(sorted(dims)),
        observed=str(sorted(graph.dims)),
        passed=sorted(graph.dims) == sorted(dims),
    )
    return records


def _case_dihedral(spec: Dihedral) -> list[CheckRecord]:
    ctx = fixture(spec)
    records = _Recorder()
    graph = ctx.graph
    n = spec.n
    if n % 2 == 0:
        want_vertices = n // 2 + 3
        label_ok = graph.shape.kind == "affine_d"
        loops = 0
    else:
        want_vertices = (n + 3) // 2
        label_ok = graph.shape.kind == "dihedral_odd_tail"
        loops = 1
    have_loops = int(np.trace(graph.matrix))
    records.add(
        check_id=f"dihedral[{spec_text(spec)}]",
        claim="tautological graph has the parity-dependent vertex count and loop",
        inputs=spec_text(spec),
        expected=f"{want_vertices} vertices, {loops} loop(s)",
        observed=f"{graph.n_vertices} vertices, {have_loops} loop(s)",
        passed=graph.n_vertices == want_vertices and label_ok and have_loops == loops,
    )
    return records


def _case_hedgehog(spec: Extraspecial2) -> list[CheckRecord]:
    ctx = fixture(spec)
    records = _Recorder()
    graph = ctx.graph
    n = spec.n
    label = graph.shape
    star = _star_exponent(label)
    center_dim = max(graph.dims)
    records.add(
        check_id=f"hedgehog[{spec_text(spec)}]",
        claim="extraspecial graph is the 4^n-spine star with a 2^n-dimensional center",
        inputs=f"{spec_text(spec)}, |G|={ctx.group.order}",
        expected=f"4^{n} spines, center dim {2**n}",
        observed=f"{label.short()}, center dim {center_dim}",
        passed=star == n and center_dim == 2**n and graph.tree,
    )
    if n == 4:
        records.add(
            check_id=f"runtime[{spec_text(spec)}]",
            claim="order-512 table computes within budget",
            inputs=spec_text(spec),
            expected="< 60 s",
            observed=f"{ctx.table_seconds:.2f} s",
            passed=ctx.table_seconds < 60.0,
        )
    return records


def _case_bipartite(spec: GroupSpec) -> list[CheckRecord]:
    ctx = fixture(spec)
    graph = ctx.graph
    return [verify_bipartite_criterion(ctx, graph)]


def _case_tree_theorem(spec: GroupSpec) -> list[CheckRecord]:
    ctx = fixture(spec)
    graph = ctx.graph
    return [verify_tree_theorem(ctx, graph)]


def _forest_candidates(ct: CharacterTable) -> list[int]:
    """The self-dual irreducibles whose McKay graph can be a forest.  A forest
    on r vertices has trace 0 and 2|E| <= 2(r - 1) < p, since p > 2|G| >= 2r,
    so its two residues from `trace_and_total` are those integers; an
    irreducible whose residues are not cannot give a forest."""
    ms = [i for i in range(ct.r) if is_self_dual(ct, ct.index[i])]
    sums = trace_and_total(ct, ms)
    bound = 2 * (ct.r - 1)
    return [m for m, (trace, total) in zip(ms, sums.tolist()) if trace == 0 and total <= bound]


def _case_sweep(spec: GroupSpec) -> list[CheckRecord]:
    records = _Recorder()
    ctx = fixture(spec)
    trees = forests = 0
    for i in _forest_candidates(ctx.ct):
        graph = build_mckay_graph(ctx.ct, Irrep(i))
        if not graph.forest:
            continue
        forests += 1
        verify_forest_theorem(ctx, graph)  # raises ClassificationViolated on escape
        if graph.tree:
            trees += 1
            verify_tree_theorem(ctx, graph)
    records.add(
        check_id=f"sweep[{spec_text(spec)}]",
        claim="no self-dual irreducible yields a tree/forest escaping the classification",
        inputs=f"{spec_text(spec)}, |G|={ctx.group.order}",
        expected="no classification escape",
        observed=f"{forests} forests ({trees} trees) verified",
        passed=True,
    )
    return records


def _case_product_copies(base: GroupSpec, n_copies: int) -> list[CheckRecord]:
    records = _Recorder()
    spec = Product(base, Cyclic(n_copies))
    ctx = fixture(spec)
    base_ctx = fixture(base)
    rho = pullback_rho(ctx.ct, base_ctx.cd.class_of, n_copies, base_ctx.graph.rho)
    graph = build_mckay_graph(ctx.ct, rho)
    decomp = decompose_components(graph)
    iso_all = all(
        graph_isomorphic(c.adjacency, decomp.principal.adjacency)
        for c in decomp.components
    )
    principal_ok = principal_component_isomorphism_check(decomp)
    records.add(
        check_id=f"copies[{spec_text(spec)}]",
        claim="inflating along a cyclic factor yields that many copies of the base graph",
        inputs=spec_text(spec),
        expected=f"{n_copies} isomorphic components, principal = base graph",
        observed=f"{len(decomp.components)} components, all isomorphic: {iso_all}, "
        f"principal check: {principal_ok}",
        passed=len(decomp.components) == n_copies and iso_all and principal_ok,
    )
    records.append(verify_sum_of_squares(decomp, spec_text(spec)))
    if graph.forest:
        records.append(verify_forest_theorem(ctx, graph))
    return records


def _case_principal_semidirect() -> list[CheckRecord]:
    records = _Recorder()
    spec = Semidirect(Dihedral(8), Cyclic(3))
    ctx = fixture(spec)
    base = fixture(Dihedral(8))
    rho = pullback_rho(ctx.ct, base.cd.class_of, 3, base.graph.rho)
    graph = build_mckay_graph(ctx.ct, rho)
    decomp = decompose_components(graph)
    ok = principal_component_isomorphism_check(decomp)
    ok = ok and graph_isomorphic(decomp.principal.adjacency, base.graph.matrix)
    records.add(
        check_id="principal[semidirect(dihedral:8,cyclic:3)]",
        claim="principal component is the graph of the untwisted quotient pair",
        inputs="semidirect(dihedral:8,cyclic:3)",
        expected="principal component isomorphic to the dihedral graph",
        observed="isomorphic" if ok else "NOT isomorphic",
        passed=ok,
    )
    return records


def _case_dual_and_duality(spec: GroupSpec, irrep_index: int) -> list[CheckRecord]:
    from .graphs import dual_check

    records = _Recorder()
    ctx = fixture(spec)
    ok = dual_check(ctx.ct, Irrep(irrep_index))
    records.add(
        check_id=f"dual[{spec_text(spec)}:{irrep_index}]",
        claim="the dual selector transposes the multiplicity matrix",
        inputs=f"{spec_text(spec)}, irreducible {irrep_index}",
        expected="transpose relation holds",
        observed="holds" if ok else "violated",
        passed=ok,
    )
    return records


# ---------------------------------------------------------------------------
# suite assembly


def _tree_cases() -> list[tuple[str, Callable[[], list[CheckRecord]]]]:
    cases: list[tuple[str, Callable[[], list[CheckRecord]]]] = []
    ade_expect = {
        **{spec_text(BinaryDihedral(n)): (n + 2, 4 * n) for n in range(2, 7)},
        "binary:T": (6, 24),
        "binary:O": (7, 48),
        "binary:I": (8, 120),
    }
    for spec in ADE_FIXTURES:
        idx, order = ade_expect[spec_text(spec)]
        cases.append(
            (f"ade:{spec_text(spec)}", lambda s=spec, i=idx, o=order: _case_ade(s, i, o))
        )
    for kind in "TOI":
        cases.append((f"labels:binary:{kind}", lambda k=kind: _case_exceptional_labels(k)))
    for spec in DIHEDRAL_EVEN + DIHEDRAL_ODD:
        cases.append((f"dihedral:{spec_text(spec)}", lambda s=spec: _case_dihedral(s)))
    for spec in EXTRASPECIAL:
        cases.append((f"hedgehog:{spec_text(spec)}", lambda s=spec: _case_hedgehog(s)))
    for spec in IDENTITY_FIXTURES:
        cases.append((f"bipartite:{spec_text(spec)}", lambda s=spec: _case_bipartite(s)))
    tree_specs = [s for s in IDENTITY_FIXTURES if not (isinstance(s, Dihedral) and s.n % 2)]
    for spec in tree_specs:
        cases.append((f"treethm:{spec_text(spec)}", lambda s=spec: _case_tree_theorem(s)))
    for spec in SWEEP_SPECS:
        cases.append((f"sweep:{spec_text(spec)}", lambda s=spec: _case_sweep(s)))
    return cases


def _forest_cases() -> list[tuple[str, Callable[[], list[CheckRecord]]]]:
    cases: list[tuple[str, Callable[[], list[CheckRecord]]]] = [("tower", verify_normal_tower)]
    for fx in CONSTRUCTIONS:
        cases.append((f"construction:{fx.name}", lambda f=fx: verify_construction_531(f)))
    cases.append(
        ("copies:extraspecial", lambda: _case_product_copies(Extraspecial2(2, "+"), 2))
    )
    cases.append(("copies:binaryT", lambda: _case_product_copies(BinaryPoly("T"), 3)))
    cases.append(("principal:semidirect", _case_principal_semidirect))
    return cases


def _identity_cases() -> list[tuple[str, Callable[[], list[CheckRecord]]]]:
    cases = []
    for spec in IDENTITY_FIXTURES:
        cases.append((f"identities:{spec_text(spec)}", lambda s=spec: _case_identities(s)))
    cases.append(("dual:cyclic5", lambda: _case_dual_and_duality(Cyclic(5), 1)))
    cases.append(("dual:dihedral3", lambda: _case_dual_and_duality(Dihedral(3), 2)))
    return cases


SUITES = ("trees", "forests", "identities", "all")


def _cases_for(suite: str) -> list[tuple[str, Callable[[], list[CheckRecord]]]]:
    if suite == "trees":
        return _tree_cases()
    if suite == "forests":
        return _forest_cases()
    if suite == "identities":
        return _identity_cases()
    if suite == "all":
        return _identity_cases() + _tree_cases() + _forest_cases()
    raise ValueError(f"unknown suite {suite!r}")


def _run_case(case) -> list[CheckRecord]:
    case_id, fn = case
    records = _Recorder()
    try:
        return fn()
    except Exception as exc:  # surfacing failures as records, never hiding them
        records.add(
            check_id=case_id,
            claim="case execution",
            inputs=case_id,
            expected="no exception",
            observed=f"{type(exc).__name__}: {exc}",
            passed=False,
        )
        return records


def _run_case_by_name(args) -> list[CheckRecord]:
    suite, index = args
    case = _cases_for(suite)[index]
    return _run_case(case)


def run_suite(suite: str, jobs: int = 1) -> VerificationReport:
    cases = _cases_for(suite)
    records: list[CheckRecord] = []
    # the pool forks all its workers at once, so never ask for more than can work
    workers = min(jobs, len(cases), os.cpu_count() or 1)
    if workers <= 1:
        for case in cases:
            records.extend(_run_case(case))
    else:
        # imported here: it loads multiprocessing, which a serial run never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            args = [(suite, i) for i in range(len(cases))]
            for result in pool.map(_run_case_by_name, args):
                records.extend(result)
    return VerificationReport(suite=suite, records=records)
