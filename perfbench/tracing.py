"""Per-layer tracing of the eppspulley CLI from outside the library.

Public callables are wrapped where the calling module looks them up, so
the library itself is unchanged.  Each wrapped call records a span
(id, name, op, parent, start, end); spans stay in memory until the run
ends.  Counters are taken at the same boundaries.  A hook whose target no
longer exists is listed in `Tracer.missing` and its metrics are left out,
never reported as zero.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import itertools
import time
from collections import Counter, defaultdict

# (module that looks the callable up, attribute path in it, span name).
# The span name is "<layer>.<function>", the layer being the defining module.
HOOKS = (
    ("eppspulley.cli", "read_sample_file", "cli.read_sample_file"),
    ("eppspulley.cli", "epps_pulley_statistic", "statistic.epps_pulley_statistic"),
    ("eppspulley.cli", "nystrom_spectrum", "spectral.nystrom_spectrum"),
    ("eppspulley.cli", "null_pvalue", "spectral.null_pvalue"),
    ("eppspulley.cli", "efficiency_table", "bahadur.efficiency_table"),
    ("eppspulley.cli", "family_from_name", "alternatives.family_from_name"),
    ("eppspulley.backend", "pairwise_gauss_sum", "backend.pairwise_gauss_sum"),
    ("eppspulley.backend", "kernel_gram", "backend.kernel_gram"),
    ("eppspulley.spectral", "nystrom_spectrum", "spectral.nystrom_spectrum"),
    ("eppspulley.spectral", "np.linalg.eigvalsh", "spectral.eigvalsh"),
    ("eppspulley.bahadur", "lambda1", "spectral.lambda1"),
    ("eppspulley.bahadur", "local_index", "bahadur.local_index"),
    ("eppspulley.bahadur", "lrt_local_index", "bahadur.lrt_local_index"),
    ("eppspulley.bahadur", "integrate_1d", "quadrature.integrate_1d"),
    ("eppspulley.bahadur", "integrate_2d", "quadrature.integrate_2d"),
    ("eppspulley.bahadur", "family_from_name", "alternatives.family_from_name"),
)
ROOT_SPAN = "cli.main"
# span name -> counter names it feeds, beyond .s, .self_s and .calls
COUNTERS = {
    "backend.pairwise_gauss_sum": ("backend.pairwise_gauss_sum.pairs",),
    "backend.kernel_gram": ("backend.kernel_gram.bytes_computed",),
    "spectral.nystrom_spectrum": ("spectral.nystrom_spectrum.repeat_ratio",),
    "spectral.null_pvalue": ("spectral.null_pvalue.draws",),
    "quadrature.integrate_1d": ("quadrature.integrate_1d.panels",),
    "quadrature.integrate_2d": ("quadrature.integrate_2d.outer_panels",),
    "alternatives.family_from_name": ("alternatives.points",),
}


def metric_names() -> list[str]:
    """Every per-layer metric a traced run can report."""
    spans = [ROOT_SPAN] + list(dict.fromkeys(name for _, _, name in HOOKS))
    names = [f"{s}.{k}" for s in spans for k in ("s", "self_s", "calls")]
    return names + [c for s in spans for c in COUNTERS.get(s, ())]


def unit(name: str) -> str:
    kind = name.rsplit(".", 1)[-1]
    if kind in ("s", "self_s", "overhead_s"):
        return "s"
    return {"bytes_computed": "bytes", "repeat_ratio": "ratio"}.get(kind, "count")


class _Overlay:
    """View of `base` with some attributes replaced, so that one module's
    lookups can be hooked without patching an object other modules share."""

    def __init__(self, base, **replaced):
        self.__dict__.update(replaced)
        self._base = base

    def __getattr__(self, name):
        return getattr(self._base, name)


def _overlaid(obj, parts, value):
    """An object like `obj` whose attribute path `parts` reads `value`."""
    if not parts:
        return value
    return _Overlay(obj, **{parts[0]: _overlaid(getattr(obj, parts[0]), parts[1:], value)})


def _arguments(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.op: int | None = None
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._hooked: set[str] = set()
        self._spectrum_keys: list[tuple] = []
        self._wrappers: dict[int, object] = {}

    def call(self, name, fn, *args, **kwargs):
        """Call fn inside a span named `name`."""
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, self.op, parent, start, end))

    def _wrap(self, name, fn):
        # one wrapper per function, however many modules look it up
        if id(fn) not in self._wrappers:
            count = getattr(self, "_count_" + name.replace(".", "_"), None)

            def wrapper(*args, **kwargs):
                result = self.call(name, fn, *args, **kwargs)
                return result if count is None else count(fn, args, kwargs, result)

            self._wrappers[id(fn)] = wrapper
        return self._wrappers[id(fn)]

    # -- counters of the hooked spans that have any ----------------------
    def _count_backend_pairwise_gauss_sum(self, fn, args, kwargs, result):
        self.counts["backend.pairwise_gauss_sum.pairs"] += len(args[0]) ** 2
        return result

    def _count_backend_kernel_gram(self, fn, args, kwargs, result):
        self.counts["backend.kernel_gram.bytes_computed"] += result.nbytes
        return result

    def _count_spectral_nystrom_spectrum(self, fn, args, kwargs, result):
        a = _arguments(fn, args, kwargs)
        self._spectrum_keys.append((a["tp"].beta, a["n_points"], a["runs"], a["seed"]))
        return result

    def _count_spectral_null_pvalue(self, fn, args, kwargs, result):
        self.counts["spectral.null_pvalue.draws"] += _arguments(fn, args, kwargs)["mc_samples"]
        return result

    def _count_quadrature_integrate_1d(self, fn, args, kwargs, result):
        self.counts["quadrature.integrate_1d.panels"] += result.subdivisions
        return result

    def _count_quadrature_integrate_2d(self, fn, args, kwargs, result):
        self.counts["quadrature.integrate_2d.outer_panels"] += result.subdivisions
        return result

    def _count_alternatives_family_from_name(self, fn, args, kwargs, family):
        """Return the family with callables that count their abscissae."""

        def counting(density):
            def counted(x, *rest):
                self.counts["alternatives.points"] += getattr(x, "size", 1)
                return density(x, *rest)

            return counted

        return dataclasses.replace(
            family, density=counting(family.density), d1=counting(family.d1), d2=counting(family.d2)
        )

    # -- installation and results ----------------------------------------
    def install(self) -> None:
        for module_name, path, name in HOOKS:
            head, *rest = path.split(".")
            try:
                module = importlib.import_module(module_name)
                target = getattr(module, head)
                for part in rest:
                    target = getattr(target, part)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(name, target)
            setattr(module, head, _overlaid(getattr(module, head), rest, wrapper))
            self._hooked.add(name)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of every installed hook; a span name is
        reported when at least one of its hooks was installed."""
        total: dict[str, float] = defaultdict(float)
        covered: dict[int, float] = defaultdict(float)
        calls: Counter = Counter()
        for sid, name, _, parent, start, end in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent is not None:
                covered[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for sid, name, _, _, start, end in self.spans:
            own[name] += end - start - covered[sid]
        out: dict[str, float] = {}
        for name in [ROOT_SPAN] + sorted(self._hooked):
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = own[name]
            out[f"{name}.calls"] = calls[name]
            for counter in COUNTERS.get(name, ()):
                out[counter] = self.counts[counter]
        if "spectral.nystrom_spectrum" in self._hooked:
            keys = self._spectrum_keys
            repeats = len(keys) - len(set(keys))
            out["spectral.nystrom_spectrum.repeat_ratio"] = repeats / len(keys) if keys else 0.0
        return out
