"""Outside-in tracer: spans around calls into cfku's layers.

The tracer wraps each listed public function and rebinds the wrapper in
every loaded ``cfku.*`` namespace that holds the original, because the
modules import each other's functions by name (``from .complexes import
subquotient``).  Calls a module makes to its own functions go through
its namespace too, so they are traced as well.  Nothing under ``src/``
is changed; ``uninstall`` puts every original back.

A span is (id, parent id, name, start ns, end ns), kept in memory and
written out at the end of the run.  Leaf arithmetic (``mul``, ``deg``,
``divmod_poly``, ``lmul``, ``lterms``) is not wrapped: it is called
10^5 to 10^6 times per pass, so timing it would measure the tracer.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# "<module>.<function>"; a dotted function names a method of a class
TRACED = [
    "upoly.smith_normal_form",
    "upoly.solve",
    "upoly.mat_mul",
    "upoly.mat_vec",
    "complexes.validate",
    "complexes.subquotient",
    "complexes.build_staircase",
    "complexes.build_box",
    "complexes.direct_sum",
    "complexes.dualize",
    "complexes.sarkar",
    "homology.graded_homology",
    "homology.hfk_hat",
    "homology.GradedModule.class_coords",
    "involution.involution_from_rules",
    "involution.dual_involution",
    "involution.validate_involution",
    "cone.build_cone",
    "cone.cone_homology",
    "cone.involutive_vs",
    "cone.brute_force_vs",
    "pretzel.classify",
    "pretzel.box_multiplicities",
    "pretzel.model_complex",
    "pretzel.full_complex",
    "pretzel.model_involution_for",
    "pretzel.full_involution",
    "pretzel.compute_invariants",
    "pretzel.theorem_values",
    "pretzel.report_dict",
]

MODULES = sorted({t.split(".")[0] for t in TRACED})


def metric_name(target: str) -> str:
    """``homology.GradedModule.class_coords`` -> ``homology.class_coords``."""
    parts = target.split(".")
    return parts[0] + "." + parts[-1]


class Tracer:
    def __init__(self, targets=TRACED):
        self.targets = list(targets)
        self.spans: list = []
        self.errors: Counter = Counter()
        self.snf_cells = 0
        self.snf_max_side = 0
        self.cone_gens = 0
        self.box_calls = 0
        self.box_params: set = set()
        self.validate_calls = 0
        # id -> object; holding the objects keeps their ids from being reused
        self.validated: dict[int, object] = {}
        self._stack: list[int] = []
        self._raised: dict[int, BaseException] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- observers of arguments and results at the layer boundary ---------

    def _before(self, name: str, args) -> None:
        if name == "upoly.smith_normal_form":
            rows = len(args[0])
            cols = len(args[0][0]) if rows else 0
            self.snf_cells += rows * cols
            self.snf_max_side = max(self.snf_max_side, rows, cols)
        elif name == "complexes.validate":
            self.validate_calls += 1
            self.validated[id(args[0])] = args[0]
        elif name == "pretzel.box_multiplicities":
            self.box_calls += 1
            self.box_params.add(args[0])

    def _after(self, name: str, result) -> None:
        if name == "cone.build_cone":
            self.cone_gens += len(result.labels)

    def _raise(self, module: str, exc: BaseException) -> None:
        # count an exception once, in the innermost traced module it left
        if id(exc) not in self._raised:
            self._raised[id(exc)] = exc
            self.errors[module] += 1

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        module = name.split(".")[0]
        before, after = self._before, self._after

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before(name, args)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._raise(module, exc)
                raise
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, name, start, end)
            after(name, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        namespaces = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "cfku" or key.startswith("cfku."))
        ]
        for target in self.targets:
            module, *owner, func = target.split(".")
            home = sys.modules["cfku." + module]
            for attr in owner:
                home = getattr(home, attr)
            original = vars(home)[func]
            wrapper = self._wrap(metric_name(target), original)
            if owner:
                self._rebind(home, func, wrapper)
                continue
            for mod in namespaces:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, attr, wrapper)

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -----------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds) over the recorded spans.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        child_ns: dict[int, int] = {}
        for sid, parent, _name, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] = child_ns.get(parent, 0) + end - start
        out = {metric_name(t): [0, 0] for t in self.targets}
        for sid, _parent, name, start, end in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += end - start - child_ns.get(sid, 0)
        return {name: (calls, ns / 1e9) for name, (calls, ns) in out.items()}

    def metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics of this tracer's pass: name -> (value, unit).

        A layer a workload does not reach reports 0 calls, 0 s, and a
        distinct ratio of 0.
        """
        out: dict[str, tuple[float, str]] = {}
        for name, (calls, self_s) in self.layer_totals().items():
            out[name + ".calls"] = (calls, "count")
            out[name + ".self_s"] = (self_s, "s")
        out["upoly.smith_normal_form.cells"] = (self.snf_cells, "count")
        out["upoly.smith_normal_form.max_side"] = (self.snf_max_side, "count")
        out["cone.build_cone.gens"] = (self.cone_gens, "count")
        out["pretzel.box_multiplicities.distinct_ratio"] = (
            len(self.box_params) / self.box_calls if self.box_calls else 0.0, "ratio",
        )
        out["complexes.validate.distinct_ratio"] = (
            len(self.validated) / self.validate_calls if self.validate_calls else 0.0, "ratio",
        )
        for module in MODULES:
            out[module + ".errors"] = (self.errors[module], "count")
        return out

    def write_spans(self, fh, label: str) -> None:
        """One tab-separated line per span, prefixed by ``label``."""
        for span in self.spans:
            fh.write("%s\t%d\t%d\t%s\t%d\t%d\n" % ((label,) + span))
