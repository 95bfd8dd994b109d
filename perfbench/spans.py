"""Spans around the public functions of each pconcurrence module, from outside the package.

The tracer wraps a fixed list of functions and rebinds every module
attribute of the package that refers to one of them, so calls through
`cli.reconstruct_mle`, `witness.project_subspace`, `measures.psd_factor`
and the like all pass through a wrapper. Nothing under `src/` changes.
Calls are synchronous and single-threaded, so spans nest strictly: a
span's self time is its duration minus the durations of its direct
children. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time
import warnings

# (module, function, span name); the span name is the metric prefix.
TARGETS = [
    ("tomography", "reconstruct_linear", "tomography.reconstruct_linear"),
    ("tomography", "extract_sub_tomography", "tomography.extract_sub_tomography"),
    ("tomography", "simulate_counts", "tomography.simulate_counts"),
    ("tomography", "joint_settings", "tomography.joint_settings"),
    ("witness", "maximize_over_pairings", "witness.maximize_over_pairings"),
    ("witness", "pconcurrence_known", "witness.pconcurrence_known"),
    ("witness", "pconcurrence_search", "witness.pconcurrence_search"),
    ("measures", "wootters_concurrence", "measures.wootters_concurrence"),
    ("measures", "fidelity_to_ket", "measures.fidelity_to_ket"),
    ("measures", "eof_pure", "measures.eof_pure"),
    ("measures", "i_concurrence", "measures.i_concurrence"),
    ("measures", "uhlmann_fidelity", "measures.uhlmann_fidelity"),
    ("states", "validate_density", "states.validate_density"),
    ("states", "load_state", "states.load_state"),
    ("qmath", "psd_factor", "qmath.psd_factor"),
]
CLI_COMMANDS = ("simulate", "witness", "reconstruct", "sweep", "path")
TARGETS += [("cli", f"cmd_{c}", f"cli.{c}") for c in CLI_COMMANDS]

# Per-layer metrics, normalised per op: (name, unit).
LAYER_METRICS = [
    ("tomography.sector_mle.calls", "count/op"),
    ("tomography.sector_mle.self_ms", "ms/op"),
    ("tomography.sector_mle.iterations", "count/op"),
    ("tomography.sector_mle.unconverged", "count/op"),
    ("tomography.full_mle.calls", "count/op"),
    ("tomography.full_mle.self_ms", "ms/op"),
    ("tomography.full_mle.iterations", "count/op"),
    ("tomography.full_mle.unconverged", "count/op"),
    ("tomography.mle.converged_ratio", "ratio"),
    ("tomography.reconstruct_linear.self_ms", "ms/op"),
    ("tomography.extract_sub_tomography.calls", "count/op"),
    ("tomography.extract_sub_tomography.self_ms", "ms/op"),
    ("tomography.simulate_counts.self_ms", "ms/op"),
    ("tomography.joint_settings.self_ms", "ms/op"),
    ("tomography.record_io.self_ms", "ms/op"),
    ("tomography.record_io.bytes", "B/op"),
    ("witness.project_subspace.calls", "count/op"),
    ("witness.project_subspace.self_ms", "ms/op"),
    ("witness.zero_support_sectors", "count/op"),
    ("witness.maximize_over_pairings.self_ms", "ms/op"),
    ("witness.pconcurrence_known.self_ms", "ms/op"),
    ("witness.pconcurrence_search.self_ms", "ms/op"),
    ("measures.wootters_concurrence.calls", "count/op"),
    ("measures.wootters_concurrence.self_ms", "ms/op"),
    ("measures.fidelity_to_ket.self_ms", "ms/op"),
    ("measures.eof_pure.self_ms", "ms/op"),
    ("measures.i_concurrence.self_ms", "ms/op"),
    ("measures.uhlmann_fidelity.self_ms", "ms/op"),
    ("states.validate_density.calls", "count/op"),
    ("states.validate_density.self_ms", "ms/op"),
    ("states.load_state.self_ms", "ms/op"),
    ("qmath.psd_factor.calls", "count/op"),
    ("qmath.psd_factor.self_ms", "ms/op"),
] + [(f"cli.{c}.self_ms", "ms/op") for c in CLI_COMMANDS] + [
    ("trace.overhead_ratio", "ratio"),
]

# Counters that must repeat exactly for the same op and inputs.
DETERMINISTIC_COUNTERS = (
    "tomography.sector_mle.calls",
    "tomography.sector_mle.iterations",
    "tomography.sector_mle.unconverged",
    "tomography.full_mle.calls",
    "tomography.full_mle.iterations",
    "tomography.full_mle.unconverged",
    "tomography.extract_sub_tomography.calls",
    "witness.project_subspace.calls",
    "witness.zero_support_sectors",
    "measures.wootters_concurrence.calls",
)


class Tracer:
    """Records spans and per-name call counts, self times and counters."""

    def __init__(self):
        pkg = "pconcurrence"
        self._modules = [m for n, m in sys.modules.items() if n == pkg or n.startswith(pkg + ".")]
        mod = {n.removeprefix(pkg + "."): m for n, m in sys.modules.items() if n.startswith(pkg + ".")}
        self._states = mod["states"]
        self._support_error = mod["witness"].SubspaceSupportError
        special = {
            ("tomography", "reconstruct_mle"): self._mle,
            ("tomography", "save_record"): self._record_io,
            ("tomography", "load_record"): self._record_io,
            ("witness", "project_subspace"): self._project,
            ("cli", "main"): self._cli_main,
        }
        targets = [(m, f, functools.partial(self._plain, name=n)) for m, f, n in TARGETS]
        targets += [(m, f, wrap) for (m, f), wrap in special.items()]
        wrappers = {}
        self.missing = []
        for module, func, wrap in targets:
            fn = getattr(mod.get(module), func, None)
            if fn is None:
                self.missing.append(f"{module}.{func}")
            else:
                wrappers[fn] = wrap(fn)
        self._wrappers = wrappers
        self._post_init = self._states.DensityMatrix.__post_init__
        self._post_init_wrapper = self._plain(self._post_init, name="states.validate_density")

        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int, int, int]] = []  # op, id, parent, name, start, end
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list[int]] = []  # [span id, name id, start, child ns]
        self._next_id = 0
        self.op = -1

    # --- binding -------------------------------------------------------------

    def install(self) -> None:
        for m in self._modules:
            for attr, value in list(vars(m).items()):
                if callable(value) and value in self._wrappers:
                    setattr(m, attr, self._wrappers[value])
        self._states.DensityMatrix.__post_init__ = self._post_init_wrapper

    def uninstall(self) -> None:
        originals = {w: fn for fn, w in self._wrappers.items()}
        for m in self._modules:
            for attr, value in list(vars(m).items()):
                if callable(value) and value in originals:
                    setattr(m, attr, originals[value])
        self._states.DensityMatrix.__post_init__ = self._post_init

    # --- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def enter(self, name: str) -> None:
        self._stack.append([self._next_id, self._name_id(name), time.perf_counter_ns(), 0])
        self._next_id += 1

    def exit(self) -> None:
        end = time.perf_counter_ns()
        span_id, name_id, start, child = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.spans.append((self.op, span_id, -1 if parent is None else parent[0], name_id, start, end))
        name = self.names[name_id]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_ns[name] = self.self_ns.get(name, 0) + dur - child

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    @contextlib.contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    # --- wrappers ------------------------------------------------------------

    def _plain(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return wrapper

    def _cli_main(self, fn):
        @functools.wraps(fn)
        def wrapper(argv=None):
            self.enter(f"cli.{argv[0] if argv else 'main'}")
            try:
                return fn(argv)
            finally:
                self.exit()

        return wrapper

    def _mle(self, fn):
        """Sector (2x2) or full fit; iterations come from return_history=True, same loop."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            record = bound.arguments["record"]
            wants_history = bound.arguments.get("return_history", False)
            bound.arguments["return_history"] = True
            name = "tomography.sector_mle" if record.dim_a * record.dim_b == 4 else "tomography.full_mle"
            self.count("tomography.mle.attempted")
            self.enter(name)
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    result, history = fn(*bound.args, **bound.kwargs)
            finally:
                self.exit()
            self.count(f"{name}.iterations", len(history) - 1)
            if any("did not converge" in str(w.message) for w in caught):
                self.count(f"{name}.unconverged")
            else:
                self.count("tomography.mle.converged")
            for w in caught:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            return (result, history) if wants_history else result

        return wrapper

    def _record_io(self, fn):
        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            self.enter("tomography.record_io")
            try:
                result = fn(path, *args, **kwargs)
            finally:
                self.exit()
            self.count("tomography.record_io.bytes", os.path.getsize(path))
            return result

        return wrapper

    def _project(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter("witness.project_subspace")
            try:
                return fn(*args, **kwargs)
            except self._support_error:
                self.count("witness.zero_support_sectors")
                raise
            finally:
                self.exit()

        return wrapper

    # --- results -------------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Call counts and counters so far, for comparing repeated passes."""
        out = {f"{k}.calls": v for k, v in self.calls.items()}
        out.update(self.counters)
        return {k: out.get(k, 0) for k in DETERMINISTIC_COUNTERS}

    def layer_metrics(self, n_ops: int, overhead_ratio: float) -> dict[str, float]:
        values = {}
        for name, _unit in LAYER_METRICS:
            base, _, field = name.rpartition(".")
            if name == "tomography.mle.converged_ratio":
                attempted = self.counters.get("tomography.mle.attempted", 0)
                # With no fit attempted, no fit failed to converge.
                values[name] = self.counters.get("tomography.mle.converged", 0) / attempted if attempted else 1.0
            elif name == "trace.overhead_ratio":
                values[name] = overhead_ratio
            elif field == "calls":
                values[name] = self.calls.get(base, 0) / n_ops
            elif field == "self_ms":
                values[name] = self.self_ns.get(base, 0) / 1e6 / n_ops
            else:
                values[name] = self.counters.get(name, 0) / n_ops
        return values

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("op,span,parent,name,start_ns,end_ns\n")
            for op, span_id, parent, name_id, start, end in self.spans:
                f.write(f"{op},{span_id},{parent},{self.names[name_id]},{start},{end}\n")
