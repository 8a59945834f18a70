"""Traced runs: spans around the calls into each vlang layer.

`Tracer.install` replaces public functions under the names their callers
import them by (`vlang.cli.parse_model`, `vlang.analysis.enumerate_systems`,
...) with wrappers, and `Tracer.uninstall` puts the originals back.  Coarse
calls become spans (id, name, start, end, parent) kept in memory.  The hot
calls, one per enumerated candidate, are only counted and timed, into the
frame of the span or enumerator resume that made them, so a layer's self
time is its duration minus the time of everything traced below it.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# Span name -> the (module, attribute) names callers use.
LAYERS = {
    "cli.main": [("vlang.cli", "main")],
    "grammar.parse": [("vlang.cli", "parse_grammar")],
    "schema.derive": [("vlang.cli", "derive_schema"), ("vlang.modelparse", "derive_schema"),
                      ("vlang.schema", "derive_schema")],
    "modelparse.parse": [("vlang.cli", "parse_model")],
    "desugar": [("vlang.cli", "desugar_to_minimal")],
    "conditions.check": [("vlang.cli", "check_context_conditions")],
    "features.parse": [("vlang.cli", "parse_feature_diagrams"), ("vlang.cli", "parse_configurations")],
    "features.validate": [("vlang.cli", "validate_configurations"),
                          ("vlang.features", "validate_configurations")],
    "semantics.config": [("vlang.cli", "make_semantics_config")],
    "theorygen.generate": [("vlang.cli", "generate_domain_theory"),
                           ("vlang.cli", "generate_mapping_theory"), ("vlang.cli", "write_theory")],
    "analysis.refine": [("vlang.cli", "check_refinement"), ("vlang.analysis", "check_refinement")],
    "analysis.consistent": [("vlang.cli", "check_consistency")],
    "analysis.equiv": [("vlang.cli", "check_equivalence")],
}
# Factories whose predicates run once per candidate (validity) or once per
# valid system (mapping).
PREDICATES = {
    "sysmodel.valid": [("vlang.semantics", "valid_predicate"), ("vlang.analysis", "valid_predicate")],
    "semantics.map": [("vlang.semantics", "mapping_predicate"), ("vlang.analysis", "mapping_predicate")],
}
ENUMERATORS = [("vlang.semantics", "enumerate_systems"), ("vlang.analysis", "enumerate_systems")]

# Per-layer metrics: name -> unit.  Times and counts are per pass.
METRICS = {
    "sysmodel.enum_s": "s", "sysmodel.candidates": "count", "sysmodel.valid_s": "s",
    "sysmodel.valid": "count", "sysmodel.valid_ratio": "ratio", "sysmodel.passes": "count",
    "semantics.map_s": "s", "semantics.map_calls": "count", "semantics.accepted": "count",
    "semantics.config_s": "s", "semantics.config_calls": "count",
    "features.validate_calls": "count", "features.validate_s": "s", "features.parse_s": "s",
    "analysis.refine_s": "s", "analysis.consistent_s": "s", "analysis.equiv_s": "s",
    "analysis.systems_seen": "count",
    "grammar.parse_s": "s", "schema.derive_s": "s", "schema.calls": "count",
    "modelparse.parse_s": "s", "modelparse.kb_per_s": "KB/s", "desugar.s": "s",
    "conditions.check_s": "s", "theorygen.generate_s": "s", "cli.main_s": "s",
    "trace.overhead": "ratio",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        self._root = [0, "root", 0.0]
        self._stack = [self._root]
        self._ids = 0
        self.reset()

    def reset(self) -> None:
        """Start a new tally; spans already kept stay."""
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.true: Counter[str] = Counter()
        self.model_bytes = 0

    # -- installing ------------------------------------------------------

    def _patch(self, module: str, attr: str, make) -> None:
        mod = importlib.import_module(module)
        original = getattr(mod, attr, None)
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        self._saved.append((mod, attr, original))
        setattr(mod, attr, make(original))

    def install(self) -> None:
        for name, targets in LAYERS.items():
            for module, attr in targets:
                self._patch(module, attr, lambda fn, name=name: self._span(name, fn))
        for name, targets in PREDICATES.items():
            for module, attr in targets:
                self._patch(module, attr, lambda fn, name=name: self._factory(name, fn))
        for module, attr in ENUMERATORS:
            self._patch(module, attr, lambda fn, module=module: self._enumerator(fn, module == "vlang.analysis"))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    # -- wrappers ----------------------------------------------------------

    def _enter(self, name: str) -> list:
        self._ids += 1
        frame = [self._ids, name, 0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        parent = self._stack[-1]
        duration = end - start
        parent[2] += duration
        self.self_s[frame[1]] += duration - frame[2]
        self.calls[frame[1]] += 1
        self.spans.append((frame[0], frame[1], start, end, parent[0]))

    def _span(self, name: str, fn):
        def traced(*args, **kwargs):
            if name == "modelparse.parse" and len(args) > 1 and isinstance(args[1], str):
                self.model_bytes += len(args[1].encode("utf-8"))
            frame = self._enter(name)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(frame, start)

        return traced

    def _factory(self, name: str, factory):
        def traced_factory(*args, **kwargs):
            predicate = factory(*args, **kwargs)

            def traced(sm):
                start = perf_counter()
                ok = predicate(sm)
                duration = perf_counter() - start
                self._stack[-1][2] += duration
                self.self_s[name] += duration
                self.calls[name] += 1
                if ok:
                    self.true[name] += 1
                return ok

            return traced

        return traced_factory

    def _enumerator(self, fn, in_analysis: bool):
        def traced(*args, **kwargs):
            self.calls["sysmodel.passes"] += 1
            systems = fn(*args, **kwargs)
            self._ids += 1
            frame = [self._ids, "sysmodel.enum", 0.0]
            parent = self._stack[-1][0]
            first = last = None
            try:
                while True:
                    self._stack.append(frame)
                    start = perf_counter()
                    if first is None:
                        first = start
                    try:
                        sm = next(systems)
                    except StopIteration:
                        return
                    finally:
                        last = perf_counter()
                        self._stack.pop()
                        duration = last - start
                        self._stack[-1][2] += duration
                        self.self_s["sysmodel.enum"] += duration - frame[2]
                        frame[2] = 0.0
                    if in_analysis:
                        self.calls["analysis.systems_seen"] += 1
                    yield sm
            finally:
                if first is not None:
                    self.spans.append((frame[0], "sysmodel.enum", first, last, parent))

        return traced

    # -- results -----------------------------------------------------------

    def tally(self) -> dict[str, float]:
        """The per-layer metrics of the calls since the last reset."""
        s, n = self.self_s, self.calls
        candidates = n["sysmodel.valid"]
        parse_s = s["modelparse.parse"]
        return {
            "sysmodel.enum_s": s["sysmodel.enum"],
            "sysmodel.candidates": candidates,
            "sysmodel.valid_s": s["sysmodel.valid"],
            "sysmodel.valid": self.true["sysmodel.valid"],
            "sysmodel.valid_ratio": self.true["sysmodel.valid"] / candidates if candidates else 0.0,
            "sysmodel.passes": n["sysmodel.passes"],
            "semantics.map_s": s["semantics.map"],
            "semantics.map_calls": n["semantics.map"],
            "semantics.accepted": self.true["semantics.map"],
            "semantics.config_s": s["semantics.config"],
            "semantics.config_calls": n["semantics.config"],
            "features.validate_calls": n["features.validate"],
            "features.validate_s": s["features.validate"],
            "features.parse_s": s["features.parse"],
            "analysis.refine_s": s["analysis.refine"],
            "analysis.consistent_s": s["analysis.consistent"],
            "analysis.equiv_s": s["analysis.equiv"],
            "analysis.systems_seen": n["analysis.systems_seen"],
            "grammar.parse_s": s["grammar.parse"],
            "schema.derive_s": s["schema.derive"],
            "schema.calls": n["schema.derive"],
            "modelparse.parse_s": parse_s,
            "modelparse.kb_per_s": self.model_bytes / 1024 / parse_s if parse_s else 0.0,
            "desugar.s": s["desugar"],
            "conditions.check_s": s["conditions.check"],
            "theorygen.generate_s": s["theorygen.generate"],
            "cli.main_s": s["cli.main"],
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            json.dump({
                "fields": ["id", "name", "start", "end", "parent"],
                "spans": self.spans,
                "missing": self.missing,
            }, out)
