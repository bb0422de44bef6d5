"""In-memory spans and counters around the package's layer boundaries.

`Tracer.enable` replaces each traced function at every name its callers
use: the attribute of its defining module, every `from ... import` copy
in another `masures` module, or the class attribute of a method.  Each
wrapper opens a span on a stack, so a span's self time is its duration
minus the durations of the spans opened directly inside it.  Spans of the
coarse layers are kept one by one, with their parent and the trial that
caused them; the hot arithmetic leaves (finite-field and Laurent ops,
linear algebra) are only counted and summed.  `disable` puts every
original back.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# (metric prefix, module, attribute path, kind)
#   span:  timed, kept one by one
#   leaf:  timed, summed only
#   count: counted only
TARGETS = (
    ("cli.run_campaign", "masures.cli", "run_campaign", "span"),
    ("cli.retraction_trial", "masures.cli", "_retraction_trial", "span"),
    ("base.check_MA2", "masures.models.base", "check_MA2", "span"),
    ("base.retract_segment", "masures.models.base", "retract_segment", "span"),
    ("model.random_apartment", "masures.models.tree", "TreeModel.random_apartment", "span"),
    ("model.random_apartment", "masures.models.sl3", "SL3Model.random_apartment", "span"),
    ("model.special_points", "masures.models.tree", "TreeModel.special_points", "span"),
    ("model.special_points", "masures.models.sl3", "SL3Model.special_points", "span"),
    ("model.chart", "masures.models.tree", "TreeModel.chart", "span"),
    ("model.chart", "masures.models.sl3", "SL3Model.chart", "span"),
    ("model.apartment_coords", "masures.models.tree", "TreeModel.apartment_coords", "span"),
    ("model.apartment_coords", "masures.models.sl3", "SL3Model.apartment_coords", "span"),
    ("model.point_retract", "masures.models.tree", "TreeModel.point_retract", "span"),
    ("model.point_retract", "masures.models.sl3", "SL3Model.point_retract", "span"),
    ("sl3.triangularize", "masures.models.sl3", "_triangularize", "leaf"),
    ("laurent.mul", "masures.models.laurent", "mul", "count"),
    ("laurent.inverse", "masures.models.laurent", "inverse", "leaf"),
    ("laurent.divide", "masures.models.laurent", "divide", "count"),
    ("gf.add", "masures.models.finite_field", "GF.add", "leaf"),
    ("gf.mul", "masures.models.finite_field", "GF.mul", "leaf"),
    ("gf.neg", "masures.models.finite_field", "GF.neg", "leaf"),
    ("gf.sub", "masures.models.finite_field", "GF.sub", "leaf"),
    ("gf.inv", "masures.models.finite_field", "GF.inv", "leaf"),
    ("apartment.enclosure_of", "masures.apartment", "enclosure_of", "span"),
    ("apartment.EnclosedSet", "masures.apartment", "EnclosedSet.__init__", "span"),
    ("apartment.walls_crossed", "masures.apartment", "walls_crossed", "span"),
    ("fm.feasible", "masures.fourier_motzkin", "feasible", "leaf"),
    ("kmcore.roots_saturated", "masures.kmcore", "roots_saturated", "leaf"),
    ("kmcore.weyl_ball", "masures.kmcore", "weyl_ball", "count"),
    ("kmcore.dominance_compare", "masures.kmcore", "dominance_compare", "count"),
    ("kmcore.coroot_coordinates", "masures.kmcore", "coroot_coordinates", "count"),
    ("heckepath.random_folded_path", "masures.heckepath", "random_folded_path", "span"),
    ("heckepath.mutated_folded_path", "masures.heckepath", "mutated_folded_path", "span"),
    ("heckepath.verify_growth", "masures.heckepath", "verify_growth", "span"),
    ("serialize.verification_report_to_json", "masures.serialize", "verification_report_to_json", "span"),
    ("serialize.dumps", "masures.serialize", "dumps", "span"),
)

LINALG_FUNCTIONS = (
    "vec", "mat", "zeros", "basis_vector", "identity", "add", "sub", "scale", "dot",
    "matvec", "vecmat", "matmul", "rank", "solve", "invert", "independent",
)


class Tracer:
    def __init__(self):
        self.stack = []        # open spans: [name, start, child seconds, id]
        self.spans = []        # (id, parent id, trial, name, start, end)
        self.totals = {}       # name -> [calls, seconds, self seconds]
        self.counts = {}       # name -> calls
        self.counters = {"base.check_MA2.points": 0, "base.check_MA2.hits": 0,
                         "base.check_MA2.window_retries": 0, "fm.feasible.max_rows": 0}
        self.trial = None
        self._next_id = 0
        self._patches = []

    # -- wrappers ------------------------------------------------------------

    def _timed(self, name, fn, keep):
        stack, totals = self.stack, self.totals
        totals.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            self._next_id += 1
            frame = [name, perf_counter(), 0.0, self._next_id]
            parent = stack[-1] if stack else None
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                entry = totals[name]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                if keep:
                    self.spans.append((frame[3], parent[3] if parent else None,
                                       self.trial, name, frame[1], end))

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _check_MA2(self, fn):
        counters = self.counters
        WindowTooSmall = sys.modules["masures.errors"].WindowTooSmall

        def wrapper(model, first, second, window_radius):
            try:
                report = fn(model, first, second, window_radius)
            except WindowTooSmall:
                counters["base.check_MA2.window_retries"] += 1
                raise
            counters["base.check_MA2.hits"] += report.certificate("hits")
            return report

        return wrapper

    def _special_points(self, fn):
        counters, stack = self.counters, self.stack

        def wrapper(model, window_radius):
            points = fn(model, window_radius)
            # the span stack holds this call's own span on top
            if len(stack) > 1 and stack[-2][0] == "base.check_MA2":
                counters["base.check_MA2.points"] += len(points)
            return points

        return wrapper

    def _feasible(self, fn):
        counters = self.counters

        def wrapper(constraints, dim):
            rows = len(constraints)
            if rows > counters["fm.feasible.max_rows"]:
                counters["fm.feasible.max_rows"] = rows
            return fn(constraints, dim)

        return wrapper

    # -- patching ------------------------------------------------------------

    def _replace(self, module_name, path, make):
        module = sys.modules[module_name]
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original, make(original)))
            return
        original = getattr(module, attr)
        wrapped = make(original)
        for name, other in list(sys.modules.items()):
            if name.split(".")[0] != "masures" or other is None:
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    self._patches.append((other, key, original, wrapped))

    def prepare(self):
        """Build the wrappers; `enable` and `disable` then swap them in and out."""
        hooks = {"base.check_MA2": self._check_MA2, "model.special_points": self._special_points,
                 "fm.feasible": self._feasible}
        for name, module, path, kind in TARGETS:
            hook = hooks.get(name)

            def make(fn, name=name, kind=kind, hook=hook):
                inner = hook(fn) if hook else fn
                if kind == "count":
                    return self._counted(name, inner)
                return self._timed(name, inner, keep=kind == "span")

            self._replace(module, path, make)
        for fn in LINALG_FUNCTIONS:
            self._replace("masures.linalg", fn, lambda f: self._counted("linalg", f))

    def enable(self):
        for owner, key, _, wrapped in self._patches:
            setattr(owner, key, wrapped)

    def disable(self):
        for owner, key, original, _ in reversed(self._patches):
            setattr(owner, key, original)

    # -- results -------------------------------------------------------------

    def metrics(self):
        """Per-layer figures, by the names BENCHMARK.json lists."""
        def total(name):
            return self.totals.get(name, [0, 0.0, 0.0])

        out = {}
        for name in ("cli.run_campaign", "cli.retraction_trial", "base.retract_segment",
                     "model.random_apartment", "model.chart", "model.apartment_coords",
                     "model.point_retract", "sl3.triangularize", "laurent.inverse",
                     "apartment.enclosure_of", "apartment.EnclosedSet", "fm.feasible",
                     "apartment.walls_crossed", "kmcore.roots_saturated",
                     "heckepath.random_folded_path", "heckepath.mutated_folded_path",
                     "heckepath.verify_growth"):
            calls, seconds, _ = total(name)
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.s"] = (seconds, "s")
        calls, seconds, self_seconds = total("base.check_MA2")
        out["base.check_MA2.calls"] = (calls, "count")
        out["base.check_MA2.s"] = (seconds, "s")
        out["base.check_MA2.self_s"] = (self_seconds, "s")
        for name in ("base.check_MA2.points", "base.check_MA2.hits",
                     "base.check_MA2.window_retries", "fm.feasible.max_rows"):
            out[name] = (self.counters[name], "count")
        for name in ("laurent.mul", "laurent.divide", "kmcore.weyl_ball",
                     "kmcore.dominance_compare", "kmcore.coroot_coordinates"):
            out[f"{name}.calls"] = (self.counts.get(name, 0), "count")
        out["linalg.calls"] = (self.counts.get("linalg", 0), "count")
        out["gf.add.calls"] = (total("gf.add")[0], "count")
        out["gf.mul.calls"] = (total("gf.mul")[0], "count")
        # GF ops call only each other, so their self times add up to the
        # time spent inside the field
        out["gf.s"] = (sum(total(n)[2] for n in self.totals if n.startswith("gf.")), "s")
        out["serialize.s"] = (sum(total(n)[1] for n in self.totals if n.startswith("serialize.")), "s")
        return out

    def write(self, path, extra):
        with open(path, "w") as f:
            f.write(json.dumps({"kind": "summary", **extra,
                                "totals": self.totals, "counts": self.counts,
                                "counters": self.counters}) + "\n")
            for span_id, parent, trial, name, start, end in self.spans:
                f.write(json.dumps({"id": span_id, "parent": parent, "trial": trial,
                                    "name": name, "start": start, "end": end}) + "\n")
