"""Spans and counts at the package's public layer boundaries.

`Tracer.install()` replaces each public function listed in `SPANS` with a
wrapper that records a span (name, parent span, start, end), in every
`mckaygraphs` module that binds the function, so that a name imported into
another module is wrapped there too.  The functions in `COUNTS` are called so
often that a span would swamp them; they only count calls.  Spans stay in
memory until the pass ends.  `layer_metrics` turns one pass's spans and
counts into the per-layer metrics that BENCHMARK.json names.
"""

from __future__ import annotations

import sys
import time

PACKAGE = "mckaygraphs"

# (module, attribute) of each public boundary; "Class.method" patches the class
SPANS = [
    ("groups", "build_group"),
    ("groups", "FiniteGroup.validate"),
    ("groups", "conjugacy"),
    ("groups", "subgroup_from_elements"),
    ("groups", "normal_subgroups"),
    ("groups", "quotient_group"),
    ("groups", "tables_isomorphic"),
    ("modp", "simultaneous_split"),
    ("chartable", "compute_character_table"),
    ("chartable", "resolve_rho"),
    ("chartable", "kernel_of_character"),
    ("chartable", "adjacency_matrix"),
    ("chartable", "tensor_multiplicity"),
    ("chartable", "restriction_multiplicities"),
    ("graphs", "build_mckay_graph"),
    ("graphs", "decompose_components"),
    ("graphs", "graph_isomorphic"),
    ("shapes", "classify_component"),
    ("verify", "fixture"),
    ("cli", "render_dot"),
]
COUNTS = [("cyclotomic", "CycInt.__mul__")]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index, start, end, nested, label]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._active: dict[str, int] = {}

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called `name`."""
        parent = self._stack[-1] if self._stack else -1
        nested = self._active.get(name, 0) > 0
        idx = len(self.spans)
        self.spans.append([name, parent, time.perf_counter(), 0.0, nested, None])
        self._stack.append(idx)
        self._active[name] = self._active.get(name, 0) + 1
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx][3] = time.perf_counter()
            self._stack.pop()
            self._active[name] -= 1

    def labelled(self, name: str, label: str, fn, *args):
        """Like span(), and tag the span with `label` (a verify case id)."""
        idx = len(self.spans)
        try:
            return self.span(name, fn, *args)
        finally:
            self.spans[idx][5] = label

    def _span_wrapper(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the boundaries for the rest of the process's life."""
        modules = [
            m for key, m in sys.modules.items() if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        for targets, make in ((SPANS, self._span_wrapper), (COUNTS, self._count_wrapper)):
            for mod_name, attr in targets:
                home = sys.modules[f"{PACKAGE}.{mod_name}"]
                name = f"{mod_name}.{attr.rsplit('.', 1)[-1]}"
                if not callable(_lookup(home, attr)):
                    # a boundary the program no longer has: its metrics read 0
                    print(f"warning: no {mod_name}.{attr} to trace", file=sys.stderr)
                    continue
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    wrapped = make(name, orig)
                    for key, value in list(cls.__dict__.items()):
                        if value is orig:  # aliases such as __rmul__ = __mul__
                            setattr(cls, key, wrapped)
                    continue
                orig = getattr(home, attr)
                wrapped = make(name, orig)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapped)


def _lookup(module, attr: str):
    obj = module
    for part in attr.split("."):
        obj = getattr(obj, part, None)
    return obj


def _self_and_total(spans):
    """Per name: summed self time, summed outermost duration and call count."""
    child_time = [0.0] * len(spans)
    children = [0] * len(spans)
    for name, parent, start, end, nested, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
            children[parent] += 1
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    leaf: dict[str, int] = {}
    for idx, (name, parent, start, end, nested, _) in enumerate(spans):
        dur = end - start
        self_s[name] = self_s.get(name, 0.0) + dur - child_time[idx]
        if not nested:
            total_s[name] = total_s.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        if not children[idx]:
            leaf[name] = leaf.get(name, 0) + 1
    return self_s, total_s, calls, leaf


def layer_sums(spans, counts: dict[str, int]) -> dict[str, float]:
    """Per-layer sums over one process; missing layers read 0."""
    self_s, total_s, calls, leaf = _self_and_total(spans)
    t = lambda name: total_s.get(name, 0.0)  # noqa: E731
    s = lambda name: self_s.get(name, 0.0)  # noqa: E731
    c = lambda name: calls.get(name, 0)  # noqa: E731
    return {
        "groups.build_s": s("groups.build_group"),
        "groups.validate_s": t("groups.validate"),
        "groups.conjugacy_s": t("groups.conjugacy"),
        "groups.subgroup_calls": c("groups.subgroup_from_elements"),
        "groups.subgroup_s": t("groups.subgroup_from_elements"),
        "groups.normal_subgroups_s": t("groups.normal_subgroups"),
        "groups.quotient_s": t("groups.quotient_group"),
        "groups.isomorphic_s": t("groups.tables_isomorphic"),
        "modp.split_calls": c("modp.simultaneous_split"),
        "modp.split_s": t("modp.simultaneous_split"),
        "chartable.table_calls": c("chartable.compute_character_table"),
        "chartable.table_s": t("chartable.compute_character_table"),
        "chartable.lift_s": s("chartable.compute_character_table"),
        "chartable.select_s": t("chartable.resolve_rho"),
        "chartable.kernel_calls": c("chartable.kernel_of_character"),
        "chartable.adjacency_s": t("chartable.adjacency_matrix"),
        "chartable.tensor_calls": c("chartable.tensor_multiplicity"),
        "chartable.restrict_calls": c("chartable.restriction_multiplicities"),
        "cyclotomic.mul_calls": counts.get("cyclotomic.__mul__", 0),
        "graphs.graph_s": s("graphs.build_mckay_graph"),
        "graphs.decompose_s": t("graphs.decompose_components"),
        "graphs.decompose_self_s": s("graphs.decompose_components"),
        "graphs.isomorphic_s": t("graphs.graph_isomorphic"),
        "shapes.classify_s": t("shapes.classify_component"),
        "verify.fixture_calls": c("verify.fixture"),
        # a fixture call that hits the cache builds nothing, so it has no children
        "verify.fixture_hits": leaf.get("verify.fixture", 0),
        "verify.self_s": s("bench.suite") + s("verify.case"),
        "cli.render_s": t("cli.render_dot") + t("bench.json_dumps"),
    }


def layer_metrics(sums: list[dict[str, float]]) -> dict[str, float]:
    """Add up the per-process sums of one pass."""
    total = {key: sum(s[key] for s in sums) for key in sums[0]}
    hits = total.pop("verify.fixture_hits")
    calls = total["verify.fixture_calls"]
    total["verify.fixture_hit_ratio"] = hits / calls if calls else 0.0
    return total
