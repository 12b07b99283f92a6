"""In-memory tracing of cyhopf from outside the package.

`Tracer.install()` wraps public entry points of the package modules:

* span points (datum, cartan, smash, lie, io, cli boundaries) record one span
  each -- name, start, end, parent span, input id -- plus a count;
* leaf points (hot operations in cyclotomic and groups, and the smash
  structure maps) record only a count and time, because they run millions
  of times per input.

Every wrapped call pushes a frame on one stack, so each layer's self time is
the time inside its frames minus the time of the wrapped frames nested in
them.  `uninstall()` restores every original attribute.  Spans stay in memory
until `write_spans()` is called.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cyclotomic", "groups", "cartan", "datum", "smash", "lie", "io", "cli")

# (layer.name, module, owner-or-None, attribute, kind); owner None means a
# module-level function, replaced in every cyhopf module that imported it.
POINTS = (
    ("cyclotomic.mul", "cyclotomic", "CycloNumber", "__mul__", "mul"),
    ("cyclotomic.mul", "cyclotomic", "CycloNumber", "__rmul__", "mul"),
    ("cyclotomic.add", "cyclotomic", "CycloNumber", "__add__", "leaf"),
    ("cyclotomic.add", "cyclotomic", "CycloNumber", "__radd__", "leaf"),
    ("cyclotomic.neg", "cyclotomic", "CycloNumber", "__neg__", "leaf"),
    ("cyclotomic.pow", "cyclotomic", "CycloNumber", "__pow__", "leaf"),
    ("cyclotomic.inverse", "cyclotomic", "CycloNumber", "inverse", "leaf"),
    ("cyclotomic.eq", "cyclotomic", "CycloNumber", "__eq__", "leaf"),
    ("groups.elem_mul", "groups", "GroupElement", "__mul__", "leaf"),
    ("groups.char_eval", "groups", "Character", "value_exponent", "leaf"),
    ("groups.elements_enumerated", "groups", "AbelianGroup", "elements", "gen"),
    ("cartan.longest_word", "cartan", None, "longest_word", "span"),
    ("cartan.closure", "cartan", None, "positive_roots_closure", "span"),
    ("cartan.beta_sequence", "cartan", None, "beta_sequence", "span"),
    ("datum.validate", "datum", "CartanDatum", "__post_init__", "span"),
    ("datum.check_cy", "datum", None, "check_cy", "span"),
    ("datum.check_cy_smash", "datum", None, "check_cy_smash", "span"),
    ("datum.check_cy_braided", "datum", None, "check_cy_braided", "span"),
    ("datum.quantum_affine_report", "datum", None, "quantum_affine_report", "span"),
    ("datum.integral_character", "datum", None, "integral_character", "span"),
    ("datum.witness_search", "datum", None, "inner_witness_search", "span"),
    ("smash.build", "smash", "PresentedAlgebra", "__init__", "span"),
    ("smash.confluence", "smash", None, "check_local_confluence", "span"),
    ("smash.verify_hopf", "smash", None, "verify_hopf_axioms", "span"),
    ("smash.verify_s2", "smash", None, "verify_double_antipode", "span"),
    ("smash.nakayama", "smash", None, "nakayama_automorphism", "span"),
    ("smash.comultiply", "smash", "PresentedAlgebra", "comultiply", "leaf"),
    ("smash.antipode", "smash", "PresentedAlgebra", "antipode", "leaf"),
    ("lie.check", "lie", None, "check_cy_lie_smash", "span"),
    ("io.parse", "io", None, "load_json_file", "span"),
    ("io.parse", "io", None, "parse_datum", "span"),
    ("io.parse", "io", None, "parse_presentation", "span"),
    ("io.parse", "io", None, "parse_lie", "span"),
    ("io.parse", "io", None, "parse_cartan_only", "span"),
    ("io.render", "io", None, "cy_report_to_json", "span"),
    ("io.render", "io", None, "render_cy_report_text", "span"),
    ("io.render", "smash", "CheckReport", "to_json", "span"),
    ("cli.main", "cli", None, "main", "span"),
)


class Tracer:
    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.self_time: defaultdict = defaultdict(float)
        self.inclusive: defaultdict = defaultdict(float)  # outermost spans per name
        self.spans: list[list] = []  # [name, start, end, parent index, input id]
        self.input_id = None
        self._stack: list[list] = [[0.0, None, None]]  # [child time, span index, name]
        self._saved: list[tuple] = []

    # -- instrumentation -------------------------------------------------

    def install(self) -> None:
        import importlib

        from cyhopf.cyclotomic import CycloNumber

        mods = [m for name, m in list(sys.modules.items())
                if name == "cyhopf" or name.startswith("cyhopf.")]
        for name, modname, owner, attr, kind in POINTS:
            mod = importlib.import_module(f"cyhopf.{modname}")
            layer = name.split(".")[0]
            if owner is not None:
                cls = getattr(mod, owner)
                original = cls.__dict__[attr]
                wrapped = self._wrap(name, layer, kind, original, CycloNumber)
                self._saved.append((cls, attr, original))
                setattr(cls, attr, wrapped)
                continue
            original = getattr(mod, attr)
            wrapped = self._wrap(name, layer, kind, original, CycloNumber)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._saved.append((m, key, original))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name, layer, kind, fn, cyclo_cls):
        counts, self_time, stack = self.counts, self.self_time, self._stack
        now = perf_counter

        def close(frame, t0):
            dt = now() - t0
            stack.pop()
            self_time[layer] += dt - frame[0]
            stack[-1][0] += dt
            return dt

        if kind == "mul":
            def mul(a, b):
                fast = (isinstance(b, cyclo_cls) and a.signed_root_power() is not None
                        and b.signed_root_power() is not None)
                counts["cyclotomic.mul_fast" if fast else "cyclotomic.mul_generic"] += 1
                frame = [0.0, None, None]
                stack.append(frame)
                t0 = now()
                try:
                    return fn(a, b)
                finally:
                    close(frame, t0)
            return mul

        if kind == "leaf":
            def leaf(*args, **kwargs):
                counts[name] += 1
                frame = [0.0, None, None]
                stack.append(frame)
                t0 = now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(frame, t0)
            return leaf

        if kind == "gen":
            def gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame = [0.0, None, None]
                    stack.append(frame)
                    t0 = now()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(frame, t0)
                    counts[name] += 1
                    yield item
            return gen

        spans, inclusive = self.spans, self.inclusive

        def span(*args, **kwargs):
            counts[name] += 1
            parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
            outermost = all(f[2] != name for f in stack)
            record = [name, 0.0, 0.0, parent, self.input_id]
            spans.append(record)
            frame = [0.0, len(spans) - 1, name]
            stack.append(frame)
            t0 = record[1] = now()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = close(frame, t0)
                record[2] = t0 + dt
                if outermost:
                    inclusive[name] += dt
        return span

    def snapshot(self) -> tuple:
        """State to restore after benchmark-side work (checks) that calls
        into the package but must not count as traced work."""
        return (Counter(self.counts), dict(self.self_time), dict(self.inclusive),
                len(self.spans), self._stack[0][0])

    def restore(self, snap: tuple) -> None:
        counts, self_time, inclusive, n_spans, root_child = snap
        self.counts.clear()
        self.counts.update(counts)
        self.self_time.clear()
        self.self_time.update(self_time)
        self.inclusive.clear()
        self.inclusive.update(inclusive)
        del self.spans[n_spans:]
        self._stack[0][0] = root_child

    # -- output ----------------------------------------------------------

    def merge(self, other: dict, input_id) -> None:
        """Fold in the summary of a traced child process (see summary())."""
        self.counts.update(other["counts"])
        for key, value in other["self_time"].items():
            self.self_time[key] += value
        for key, value in other["inclusive"].items():
            self.inclusive[key] += value
        base = len(self.spans)
        for name, start, end, parent, _ in other["spans"]:
            self.spans.append([name, start, end, None if parent is None else base + parent, input_id])

    def summary(self) -> dict:
        return {"counts": dict(self.counts), "self_time": dict(self.self_time),
                "inclusive": dict(self.inclusive), "spans": self.spans}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, input_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "input": input_id}) + "\n")
