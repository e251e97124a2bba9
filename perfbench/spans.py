"""Spans for the traced run, recorded from outside the program.

``Tracer.install`` wraps every public function of the ``entbat`` layer
modules in every namespace that binds it (so a call is seen wherever its
caller looks the name up), wraps ``BipartiteState.__post_init__`` to time
state validation, and wraps ``numpy.einsum``, ``numpy.linalg.eigh`` and
``numpy.linalg.eigvalsh`` as the ``linalg`` layer.  Nothing under ``src/``
changes; ``uninstall`` puts every original back.

Spans are recorded only while an operation runs (``Tracer.active``), so
input generation and the correctness checks stay out of them.  Calls into
the program's modules become spans (name, start, end, parent); numpy calls
are too many to keep one by one, so they are counted and timed into the
innermost open span and into global totals.  Spans stay in memory until
``write`` puts them in a JSON-lines file after the timed phase.
"""
from __future__ import annotations

import json
import sys
import time
import types
from pathlib import Path

import numpy as np

LAYERS = ("qmat", "states", "measures", "battery", "thermo", "dilution", "cli")
CLOSED_MEASURES = frozenset(
    f"measures.{n}"
    for n in (
        "entanglement_entropy",
        "entanglement_cost_pure",
        "log_negativity",
        "squashed_upper",
        "squashed_pure",
        "geometric_entanglement",
    )
)
REE = "measures.relative_entropy_of_entanglement"

# name -> unit of every per-layer metric, in the order they are reported.
PER_LAYER_UNITS = {
    "measures.ree.calls": "count",
    "measures.ree.s": "s",
    "measures.ree.iterations": "count",
    "measures.ree.us_per_iter": "us",
    "measures.ree.excess_bits": "bits",
    "linalg.einsum_s": "s",
    "linalg.eigh_calls": "count",
    "linalg.eigh_s": "s",
    "linalg.eigh_d3": "count",
    "battery.ops": "count",
    "battery.self_s": "s",
    "battery.evals_per_op": "count",
    "measures.closed.calls": "count",
    "measures.closed.s": "s",
    "qmat.states_built": "count",
    "qmat.validate_s": "s",
    "qmat.tensor_s": "s",
    "qmat.partial_trace_s": "s",
    "qmat.trace_distance_s": "s",
    "cli.calls": "count",
    "cli.main_s": "s",
    "states.load_s": "s",
    "thermo.s": "s",
    "dilution.s": "s",
}

# Span record fields.
_NAME, _T0, _T1, _PARENT, _LINALG, _EXTRA = range(6)


class Tracer:
    """In-memory span recorder with function wrapping."""

    def __init__(self, ree_exact: dict[int, float] | None = None) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active = False
        self.ree_exact = ree_exact or {}
        self.einsum_s = 0.0
        self.eigh_calls = 0
        self.eigh_s = 0.0
        self.eigh_d3 = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _span(self, name: str, fn, on_return=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0, None]
            spans.append(rec)
            stack.append(idx)
            rec[_T0] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[_T1] = clock()
                stack.pop()
            if on_return is not None:
                rec[_EXTRA] = on_return(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _linalg(self, fn, kind: str):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            t0 = clock()
            out = fn(*args, **kwargs)
            dt = clock() - t0
            if kind == "einsum":
                self.einsum_s += dt
            else:
                self.eigh_calls += 1
                self.eigh_s += dt
                n = int(np.shape(args[0])[-1])
                self.eigh_d3 += n * n * n
            if stack:
                spans[stack[-1]][_LINALG] += dt
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _ree_result(self, args, kwargs, out):
        state = args[0] if args else kwargs.get("state")
        return {
            "iterations": int(out.iterations),
            "value": float(out.value),
            "exact": self.ree_exact.get(id(state)),
        }

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        import entbat.qmat

        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"entbat.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    name = f"{layer}.{attr}"
                    hook = self._ree_result if name == REE else None
                    wrapped[id(obj)] = (obj, self._span(name, obj, hook))
        bench = {"workloads", "__main__"}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "entbat" or mod_name.startswith("entbat.") or mod_name in bench):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        cls = entbat.qmat.BipartiteState
        self._patch(cls, "__post_init__", self._span("qmat.BipartiteState", cls.__post_init__))
        self._patch(np, "einsum", self._linalg(np.einsum, "einsum"))
        self._patch(np.linalg, "eigh", self._linalg(np.linalg.eigh, "eigh"))
        self._patch(np.linalg, "eigvalsh", self._linalg(np.linalg.eigvalsh, "eigh"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- analysis -----------------------------------------------------------

    def _outermost(self, idx: int, names) -> bool:
        """True when no ancestor of span ``idx`` is in ``names`` (a set or a layer prefix)."""
        p = self.spans[idx][_PARENT]
        while p >= 0:
            n = self.spans[p][_NAME]
            if (n in names) if isinstance(names, frozenset) else n.startswith(names):
                return False
            p = self.spans[p][_PARENT]
        return True

    def metrics(self) -> dict[str, float]:
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[_PARENT] >= 0:
                child[rec[_PARENT]] += rec[_T1] - rec[_T0]

        def total(name: str) -> tuple[int, float]:
            """Calls and time of one function; none of those totalled recurse."""
            n, s = 0, 0.0
            for rec in spans:
                if rec[_NAME] == name:
                    n += 1
                    s += rec[_T1] - rec[_T0]
            return n, s

        def layer_total(layer: str) -> float:
            prefix = layer + "."
            return sum(
                (
                    rec[_T1] - rec[_T0]
                    for i, rec in enumerate(spans)
                    if rec[_NAME].startswith(prefix) and self._outermost(i, prefix)
                ),
                0.0,
            )

        ree_calls, ree_s, ree_iters = 0, 0.0, 0
        excess = []
        closed_calls, closed_s = 0, 0.0
        battery_ops, battery_self, battery_evals = 0, 0.0, 0
        for i, rec in enumerate(spans):
            name = rec[_NAME]
            dur = rec[_T1] - rec[_T0]
            if name == REE:
                ree_calls += 1
                ree_s += dur
                extra = rec[_EXTRA] or {}
                ree_iters += extra.get("iterations", 0)
                if extra.get("exact") is not None:
                    excess.append(extra["value"] - extra["exact"])
            elif name in CLOSED_MEASURES and self._outermost(i, CLOSED_MEASURES):
                closed_calls += 1
                closed_s += dur
            if name.startswith("battery."):
                battery_self += dur - child[i] - rec[_LINALG]
                if self._outermost(i, "battery."):
                    battery_ops += 1
            elif name == "measures.evaluate" and not self._outermost(i, "battery."):
                battery_evals += 1

        states_built, validate_s = total("qmat.BipartiteState")
        cli_calls, cli_s = total("cli.main")
        return {
            "measures.ree.calls": ree_calls,
            "measures.ree.s": ree_s,
            "measures.ree.iterations": ree_iters,
            "measures.ree.us_per_iter": 1e6 * ree_s / ree_iters if ree_iters else 0.0,
            "measures.ree.excess_bits": sum(excess) / len(excess) if excess else 0.0,
            "linalg.einsum_s": self.einsum_s,
            "linalg.eigh_calls": self.eigh_calls,
            "linalg.eigh_s": self.eigh_s,
            "linalg.eigh_d3": self.eigh_d3,
            "battery.ops": battery_ops,
            "battery.self_s": battery_self,
            "battery.evals_per_op": battery_evals / battery_ops if battery_ops else 0.0,
            "measures.closed.calls": closed_calls,
            "measures.closed.s": closed_s,
            "qmat.states_built": states_built,
            "qmat.validate_s": validate_s,
            "qmat.tensor_s": total("qmat.tensor")[1],
            "qmat.partial_trace_s": total("qmat.partial_trace")[1],
            "qmat.trace_distance_s": total("qmat.trace_distance")[1],
            "cli.calls": cli_calls,
            "cli.main_s": cli_s,
            "states.load_s": total("states.load_state")[1],
            "thermo.s": layer_total("thermo"),
            "dilution.s": layer_total("dilution"),
        }

    def write(self, path: Path, t_origin: float) -> None:
        """Write one JSON object per span, times in seconds from ``t_origin``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for i, rec in enumerate(self.spans):
                extra = "" if rec[_EXTRA] is None else ", " + json.dumps(rec[_EXTRA])[1:-1]
                fh.write(
                    f'{{"id": {i}, "name": "{rec[_NAME]}", "start": {rec[_T0] - t_origin:.9f}, '
                    f'"end": {rec[_T1] - t_origin:.9f}, "parent": {rec[_PARENT]}, '
                    f'"linalg_s": {rec[_LINALG]:.9f}{extra}}}\n'
                )
