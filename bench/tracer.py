"""Per-layer tracing from outside the library.

`Tracer.install()` replaces each measured public function with a timing
wrapper, on the module that defines it and on every `bjsystem` module that
bound it by name (for example `wavecurves` imports `jacobian` from `flux`), so
inner calls are seen too.  `uninstall()` puts the originals back.  Nothing in
`src/` changes.

Every wrapped call of the wavecurves, riemann, interactions and fronttrack
layers is kept as a span (item id, name, parent, start, end, self time).  The
flux functions run 10^5 to 10^6 times a run, so their calls are folded into a
count and a self time per parent span name instead.  Self time is a span's
duration minus the time covered by its child spans.
"""

import sys
import time
from collections import Counter, defaultdict

from bjsystem import flux as fx
from bjsystem import fronttrack as ft
from bjsystem import interactions as ia
from bjsystem import riemann as rm
from bjsystem import wavecurves as wc

# (metric prefix, defining module, attribute); flux entries are the leaves.
LEAVES = (
    ("flux.flux", fx, "flux"),
    ("flux.jacobian", fx, "jacobian"),
    ("flux.r2_direction", fx, "r2_direction"),
    ("flux.eigenvalues", fx, "eigenvalues"),
)
LAYERS = (
    ("wavecurves.hugoniot", wc, "hugoniot"),
    ("wavecurves.rarefaction", wc, "rarefaction"),
    ("wavecurves.lax_admissible", wc, "lax_admissible"),
    ("riemann.solve", rm, "solve_riemann"),
    ("riemann.evaluate_fan", rm, "evaluate_fan"),
    ("riemann.check_fan", rm, "check_fan"),
    ("interactions.interact_12", ia, "interact_12"),
    ("interactions.interact_22", ia, "interact_22"),
    ("interactions.contraction", ia, "contraction_solve_12"),
    ("fronttrack.next_collision", ft, "next_collision"),
    ("fronttrack.resolve_collision", ft, "resolve_collision"),
    ("fronttrack.observables", ft, "observables"),
    ("fronttrack.init", ft, "init_from_piecewise"),
)
CURVES = ("wavecurves.hugoniot", "wavecurves.rarefaction")
# (ancestor, descendant): descendant calls made while the ancestor is open
NESTED = (
    ("wavecurves.hugoniot", "flux.jacobian"),
    ("riemann.solve", "wavecurves.hugoniot"),
    ("riemann.solve", "wavecurves.rarefaction"),
    ("riemann.evaluate_fan", "wavecurves.hugoniot"),
    ("riemann.evaluate_fan", "wavecurves.rarefaction"),
    ("wavecurves.rarefaction", "flux.r2_direction"),
)
RK4_STAGES = 4  # r2_direction calls per RK4 step of wavecurves.rarefaction


def bindings(fn):
    """Every (module, attribute) of the loaded bjsystem modules bound to fn."""
    return [
        (mod, attr)
        for mod_name, mod in sorted(sys.modules.items())
        if mod_name == "bjsystem" or mod_name.startswith("bjsystem.")
        for attr, value in sorted(vars(mod).items())
        if value is fn
    ]


class Tracer:
    def __init__(self):
        self.item_id = -1
        self.stack = []  # open frames: [name, time covered by children]
        self.open = Counter()  # name -> number of open frames
        self.spans = []
        self.leaf = defaultdict(lambda: [0, 0.0])  # (parent, name) -> [calls, self_s]
        self.calls = Counter()
        self.self_s = Counter()
        self.failures = Counter()
        self.nested = Counter()
        self.iterations = Counter()
        self._patched = []

    def timed_call(self, fn, arg, timed):
        """timed(fn, arg) inside a root span that opens a new item id."""
        self.item_id += 1
        frame = ["item", 0.0]
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            return timed(fn, arg)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans.append((self.item_id, "item", None, t0, t1, t1 - t0 - frame[1]))

    def _wrap(self, name, fn, is_leaf):
        stack, open_ = self.stack, self.open
        ancestors = tuple(a for a, d in NESTED if d == name)
        on_result = {
            "riemann.solve": self._after_solve,
            "interactions.contraction": self._after_contraction,
        }.get(name)

        def wrapper(*args, **kwargs):
            for a in ancestors:
                if open_[a]:
                    self.nested[a, name] += 1
            frame = [name, 0.0]
            stack.append(frame)
            open_[name] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.failures[name] += 1
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                open_[name] -= 1
                dur = t1 - t0
                own = dur - frame[1]
                parent = stack[-1][0] if stack else None
                if stack:
                    stack[-1][1] += dur
                self.calls[name] += 1
                self.self_s[name] += own
                if is_leaf:
                    acc = self.leaf[parent, name]
                    acc[0] += 1
                    acc[1] += own
                else:
                    self.spans.append((self.item_id, name, parent, t0, t1, own))
            if on_result:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_solve(self, fan):
        self.iterations["riemann.solve"] += fan.iterations

    def _after_contraction(self, result):
        self.iterations["interactions.contraction"] += result.iterations

    def install(self):
        for entries, is_leaf in ((LEAVES, True), (LAYERS, False)):
            for name, module, attr in entries:
                fn = getattr(module, attr)
                wrapper = self._wrap(name, fn, is_leaf)
                for mod, bound in bindings(fn):
                    self._patched.append((mod, bound, fn))
                    setattr(mod, bound, wrapper)
        return self

    def uninstall(self):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def metrics(self) -> dict:
        """Per-layer metrics as name -> (value, unit)."""
        calls, self_s, nested = self.calls, self.self_s, self.nested

        def per(count, base):
            return count / calls[base] if calls[base] else 0.0

        out = {}
        for name, _, _ in LEAVES:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
        for name in CURVES + ("wavecurves.lax_admissible",):
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
        out["wavecurves.hugoniot.jacobians_per_call"] = (
            per(nested["wavecurves.hugoniot", "flux.jacobian"], "wavecurves.hugoniot"), "count")
        out["wavecurves.rk4_steps"] = (
            nested["wavecurves.rarefaction", "flux.r2_direction"] // RK4_STAGES, "count")
        solves = "riemann.solve"
        out["riemann.solve.calls"] = (calls[solves], "count")
        out["riemann.solve.self_s"] = (self_s[solves], "s")
        out["riemann.solve.iterations_mean"] = (per(self.iterations[solves], solves), "count")
        out["riemann.solve.curve_evals_per_solve"] = (
            per(sum(nested[solves, c] for c in CURVES), solves), "count")
        out["riemann.solve.failures"] = (self.failures[solves], "count")
        fan = "riemann.evaluate_fan"
        out[f"{fan}.calls"] = (calls[fan], "count")
        out[f"{fan}.self_s"] = (self_s[fan], "s")
        out[f"{fan}.curve_evals_per_call"] = (per(sum(nested[fan, c] for c in CURVES), fan), "count")
        out["riemann.check_fan.self_s"] = (self_s["riemann.check_fan"], "s")
        for name in ("interactions.interact_12", "interactions.interact_22",
                     "interactions.contraction"):
            out[f"{name}.self_s"] = (self_s[name], "s")
        contraction = "interactions.contraction"
        out[f"{contraction}.iterations_mean"] = (
            per(self.iterations[contraction], contraction), "count")
        out[f"{contraction}.failures"] = (self.failures[contraction], "count")
        for name in ("fronttrack.next_collision", "fronttrack.observables",
                     "fronttrack.resolve_collision", "fronttrack.init"):
            out[f"{name}.self_s"] = (self_s[name], "s")
        return out
