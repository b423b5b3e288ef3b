"""Outside-in tracing of the tropgeom layers.

The tracer replaces chosen public functions of each layer module with
wrappers that record one span per call: (name, start, end, parent).  Spans
stay in memory; `summary()` reduces them to the per-layer metrics and
`write_spans()` writes them out when the run ends.

A name is rebound in every module that holds it, not only where it is
defined: `pipeline`, `subdivision` and `complexes` import kernel functions
with `from .exactgeom import ...`, so patching `exactgeom` alone would miss
their calls.  `linalg.dot` is deliberately not wrapped: it runs millions of
times per product run and its wrapper would swamp the trace.
"""

import gzip
import sys
from time import perf_counter

LAYERS = {
    "curves": [
        "enumerate_stable_graphs",
        "build_moduli_complex",
        "build_complex_from_graphs",
        "canonical_with_data",
        "stabilize",
    ],
    "tropmaps": [
        "enumerate_rubber_types",
        "build_map_complex",
        "superimpose",
        "forgetful_image",
        "moduli_cone",
        "fiber_product_cone",
    ],
    "subdivision": [
        "refine_until_conical",
        "hyperplane_refine",
        "stellar_subdivide",
        "compose_subdivisions",
        "pullback_subdivision",
        "verify_subdivision",
        "soundness_sample",
        "cones_cover_exactly",
    ],
    "complexes": [
        "validate_complex",
        "validate_morphism",
        "check_weak_semistable",
        "is_union_of_cones",
        "pull_back_cone",
        "preimage_in_span",
    ],
    "exactgeom": [
        "cone_from_generators",
        "cone_from_inequalities",
        "extreme_rays_of_system",
        "image_cone",
        "preimage_cone",
        "intersect",
        "lattice_surjective",
        "is_unimodular",
    ],
    "linalg": [
        "smith_normal_form",
        "solve_integer",
        "kernel_basis",
        "hnf_rows",
        "lattice_coords",
        "projection_to_lattice",
        "invert_unimodular",
    ],
    "pipeline": [
        "single_factor_run",
        "product_run",
        "image_family",
        "build_gamma_subdivision",
        "pullback_map_complexes",
        "verify_theorem_hypotheses",
        "two_factor_types",
    ],
}

# (metric, unit) pairs that summary() reports; run.py and BENCHMARK.json use
# the same names
METRICS = [
    ("curves.enumerate_s", "s"),
    ("curves.build_complex_s", "s"),
    ("curves.canonical_calls", "count"),
    ("curves.graphs", "count"),
    ("tropmaps.enumerate_types_s", "s"),
    ("tropmaps.build_map_complex_s", "s"),
    ("tropmaps.map_complex_builds", "count"),
    ("tropmaps.map_complex_distinct", "count"),
    ("tropmaps.superimpose_s", "s"),
    ("subdivision.refine_s", "s"),
    ("subdivision.stellar_steps", "count"),
    ("subdivision.refined_cones", "count"),
    ("subdivision.identity_frac", "ratio"),
    ("subdivision.pullback_s", "s"),
    ("subdivision.selfcheck_s", "s"),
    ("subdivision.selfcheck_calls", "count"),
    ("complexes.semistable_s", "s"),
    ("complexes.union_check_s", "s"),
    ("exactgeom.cone_calls", "count"),
    ("exactgeom.cones_distinct", "count"),
    ("exactgeom.cone_distinct_ratio", "ratio"),
    ("exactgeom.cone_s", "s"),
    ("exactgeom.dd_calls", "count"),
    ("exactgeom.dd_s", "s"),
    ("linalg.smith_calls", "count"),
    ("linalg.smith_s", "s"),
    ("pipeline.gamma_s", "s"),
    ("pipeline.pullback_s", "s"),
    ("pipeline.checks_s", "s"),
    ("pipeline.image_family_s", "s"),
] + [(f"{layer}.self_s", "s") for layer in LAYERS] + [
    ("trace.spans", "count"),
]


def _type_key(t):
    return (t.graph.genera, t.graph.edges, t.graph.legs, t.slopes)


class Tracer:
    def __init__(self):
        self.names = []  # span name id -> "layer.function"
        self.spans = []  # (name id, start, end, parent index or -1)
        self._stack = [-1]
        self._index = {}  # name id -> span indices, built by summary()
        self.distinct_cones = set()
        self.map_complex_inputs = set()
        self.graphs = {}  # (g, n) -> number of stable graphs
        self.gamma = []  # (original cones, refined cones) per Γ-subdivision

    # -- installation -------------------------------------------------------

    def install(self):
        import tropgeom

        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "tropgeom" or name.startswith("tropgeom."))
        ]
        hooks = {
            "exactgeom.cone_from_generators": self._observe_cone,
            "tropmaps.build_map_complex": self._observe_map_complex,
            "curves.enumerate_stable_graphs": self._observe_graphs,
            "pipeline.build_gamma_subdivision": self._observe_gamma,
        }
        for layer, functions in LAYERS.items():
            home = getattr(tropgeom, layer)
            for fname in functions:
                name = f"{layer}.{fname}"
                original = getattr(home, fname)
                wrapper = self._wrap(len(self.names), original, hooks.get(name))
                self.names.append(name)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def _wrap(self, name_id, fn, hook):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    # -- observations made on arguments and results, outside the spans ------

    def _observe_cone(self, args, kwargs, cone):
        self.distinct_cones.add(cone)

    def _observe_map_complex(self, args, kwargs, result):
        types, target = args
        self.map_complex_inputs.add((tuple(_type_key(t) for t in types), id(target)))

    def _observe_graphs(self, args, kwargs, result):
        self.graphs[args + tuple(sorted(kwargs.items()))] = len(result)

    def _observe_gamma(self, args, kwargs, sub):
        # a hyperplane or stellar cut always adds a cell (the wall), so the
        # subdivision is the identity exactly when the cone count is unchanged
        self.gamma.append((len(sub.original.cones), len(sub.refined.cones)))

    # -- reduction ----------------------------------------------------------

    def uncalled(self):
        called = {s[0] for s in self.spans if s is not None}
        return [name for i, name in enumerate(self.names) if i not in called]

    def _ids(self, names):
        return {self.names.index(n) for n in names}

    def _by_name(self, names):
        return [i for n in self._ids(names) for i in self._index.get(n, ())]

    def _outermost_time(self, names):
        """Total duration of spans with one of the names that are not nested
        inside another span with one of those names."""
        ids = self._ids(names)
        spans = self.spans
        total = 0.0
        for i in self._by_name(names):
            _, start, end, parent = spans[i]
            p = parent
            while p >= 0 and spans[p][0] not in ids:
                p = spans[p][3]
            if p < 0:
                total += end - start
        return total

    def _calls(self, names):
        return len(self._by_name(names))

    def summary(self):
        spans = self.spans
        self._index = {}
        for i, span in enumerate(spans):
            self._index.setdefault(span[0], []).append(i)
        children = [0.0] * len(spans)
        for name_id, start, end, parent in spans:
            if parent >= 0:
                children[parent] += end - start
        self_s = {layer: 0.0 for layer in LAYERS}
        for i, (name_id, start, end, parent) in enumerate(spans):
            self_s[self.names[name_id].split(".")[0]] += end - start - children[i]

        cone_calls = self._calls(["exactgeom.cone_from_generators"])
        gamma_count = len(self.gamma)
        out = {
            "curves.enumerate_s": self._outermost_time(["curves.enumerate_stable_graphs"]),
            "curves.build_complex_s": self._outermost_time(["curves.build_complex_from_graphs"]),
            "curves.canonical_calls": self._calls(["curves.canonical_with_data"]),
            "curves.graphs": sum(self.graphs.values()),
            "tropmaps.enumerate_types_s": self._outermost_time(["tropmaps.enumerate_rubber_types"]),
            "tropmaps.build_map_complex_s": self._outermost_time(["tropmaps.build_map_complex"]),
            "tropmaps.map_complex_builds": self._calls(["tropmaps.build_map_complex"]),
            "tropmaps.map_complex_distinct": len(self.map_complex_inputs),
            "tropmaps.superimpose_s": self._outermost_time(["tropmaps.superimpose"]),
            "subdivision.refine_s": self._outermost_time(["subdivision.refine_until_conical"]),
            "subdivision.stellar_steps": self._calls(["subdivision.stellar_subdivide"]),
            "subdivision.refined_cones": sum(r for _, r in self.gamma),
            "subdivision.identity_frac": (
                sum(1 for o, r in self.gamma if o == r) / gamma_count if gamma_count else 0.0
            ),
            "subdivision.pullback_s": self._outermost_time(["subdivision.pullback_subdivision"]),
            "subdivision.selfcheck_s": self._outermost_time(
                ["subdivision.verify_subdivision", "complexes.validate_complex"]
            ),
            "subdivision.selfcheck_calls": self._calls(
                ["subdivision.verify_subdivision", "complexes.validate_complex"]
            ),
            "complexes.semistable_s": self._outermost_time(["complexes.check_weak_semistable"]),
            "complexes.union_check_s": self._outermost_time(["complexes.is_union_of_cones"]),
            "exactgeom.cone_calls": cone_calls,
            "exactgeom.cones_distinct": len(self.distinct_cones),
            "exactgeom.cone_distinct_ratio": (
                len(self.distinct_cones) / cone_calls if cone_calls else 0.0
            ),
            "exactgeom.cone_s": self._outermost_time(["exactgeom.cone_from_generators"]),
            "exactgeom.dd_calls": self._calls(["exactgeom.extreme_rays_of_system"]),
            "exactgeom.dd_s": self._outermost_time(["exactgeom.extreme_rays_of_system"]),
            "linalg.smith_calls": self._calls(["linalg.smith_normal_form"]),
            "linalg.smith_s": self._outermost_time(["linalg.smith_normal_form"]),
            "pipeline.gamma_s": self._outermost_time(["pipeline.build_gamma_subdivision"]),
            "pipeline.pullback_s": self._outermost_time(["pipeline.pullback_map_complexes"]),
            "pipeline.checks_s": self._outermost_time(["pipeline.verify_theorem_hypotheses"]),
            "pipeline.image_family_s": self._outermost_time(["pipeline.image_family"]),
            "trace.spans": len(spans),
        }
        for layer, value in self_s.items():
            out[f"{layer}.self_s"] = value
        return out

    def write_spans(self, path):
        """Write the spans as gzipped CSV: name,start,end,parent (seconds
        relative to the first span)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("name,start,end,parent\n")
            for name_id, start, end, parent in self.spans:
                f.write(f"{self.names[name_id]},{start - t0:.7f},{end - t0:.7f},{parent}\n")
        return path
