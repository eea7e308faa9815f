"""Per-layer span tracing from outside the package.

`Tracer.install` replaces each public entry point listed in `SPANS` by a
wrapper that records calls, inclusive time and self time.  A module-level
function is rebound in every loaded `hermfj` module whose namespace holds
it (``from .field import coset_points`` copies the reference, so patching
only the defining module would miss those callers); a method is rebound on
its class, together with any alias of it in the class body
(``__rmul__ = __mul__``).  Nothing under ``src/`` changes.

Only aggregates are kept: recording millions of spans one by one would
cost more memory than the workloads themselves.  Self time of a span is its
duration minus the time of the spans it directly encloses, so the self
times of all spans partition the time covered by the outermost spans;
what is left of the batch wall time is reported as uncovered.  Inclusive
time counts only the outermost activation of a recursive span
(`linalg.det`).

`unitary` is reached by no CLI path and by no workload, and `bounds` runs
in microseconds, so neither is wrapped.
"""

from __future__ import annotations

import sys
from time import perf_counter

#: (span name, module, owner, attribute, extra measurement).  `owner` is
#: None for module-level functions, else the class name in `module`.
SPANS = (
    ("field.mul", "hermfj.field", "FieldElement", "__mul__", None),
    ("field.add", "hermfj.field", "FieldElement", "__add__", None),
    ("field.coset_points", "hermfj.field", None, "coset_points", None),
    ("field.euclidean_round", "hermfj.field", None, "euclidean_round", None),
    ("linalg.det", "hermfj.linalg", None, "det", None),
    ("linalg.is_hermitian", "hermfj.linalg", None, "is_hermitian", None),
    ("linalg.mat_mul", "hermfj.linalg", None, "mat_mul", None),
    ("hermitian.HermMatrix.init", "hermfj.hermitian", "HermMatrix", "__init__", None),
    ("hermitian.is_psd", "hermfj.hermitian", "HermMatrix", "is_psd", None),
    ("hermitian.reduce_class", "hermfj.hermitian", None, "reduce_class", None),
    ("hermitian.small_rep", "hermfj.hermitian", None, "small_rep", None),
    ("hermitian.gl_action", "hermfj.hermitian", None, "gl_action", None),
    ("hermitian.min_represented", "hermfj.hermitian", None, "min_represented", None),
    ("hermitian.enumerate_semi_integral", "hermfj.hermitian", None,
     "enumerate_semi_integral", "accepted"),
    ("series.FourierSeries.init", "hermfj.series", "FourierSeries", "__init__", None),
    ("series.mul", "hermfj.series", "FourierSeries", "__mul__", None),
    ("series.check_symmetry", "hermfj.series", None, "check_symmetry", None),
    ("series.symmetrize", "hermfj.series", None, "symmetrize", None),
    ("jacobi.theta_decompose", "hermfj.jacobi", None, "theta_decompose", None),
    ("jacobi.theta_recompose", "hermfj.jacobi", None, "theta_recompose", None),
    ("jacobi.JacobiTable.init", "hermfj.jacobi", "JacobiTable", "__init__", None),
    ("jacobi.shift_matrix", "hermfj.jacobi", None, "shift_matrix", None),
    ("ffj.FJFamily.init", "hermfj.ffj", "FJFamily", "__init__", None),
    ("ffj.assemble", "hermfj.ffj", None, "assemble", None),
    ("ffj.disassemble", "hermfj.ffj", None, "disassemble", None),
    ("ffj.rearrange_cogenus", "hermfj.ffj", None, "rearrange_cogenus", None),
    ("ffj.formal_theta_coeffs", "hermfj.ffj", None, "formal_theta_coeffs", None),
    ("ffj.partial_decomposition_check", "hermfj.ffj", None,
     "partial_decomposition_check", None),
    ("ffj.join_block", "hermfj.ffj", None, "join_block", None),
    # the four readers and the four writers each share one span
    ("formats.read", "hermfj.formats", None, "read_series", "bytes_in"),
    ("formats.read", "hermfj.formats", None, "read_jacobi", "bytes_in"),
    ("formats.read", "hermfj.formats", None, "read_family", "bytes_in"),
    ("formats.read", "hermfj.formats", None, "read_components", "bytes_in"),
    ("formats.write", "hermfj.formats", None, "write_series", "bytes_out"),
    ("formats.write", "hermfj.formats", None, "write_jacobi", "bytes_out"),
    ("formats.write", "hermfj.formats", None, "write_family", "bytes_out"),
    ("formats.write", "hermfj.formats", None, "write_components", "bytes_out"),
    ("cli.run", "hermfj.cli", None, "run", None),
)

LAYERS = ("field", "linalg", "hermitian", "series", "jacobi", "ffj", "formats", "cli")


class SpanStats:
    __slots__ = ("calls", "incl_s", "self_s", "depth", "bytes", "accepted", "psd_inside")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.depth = 0
        self.bytes = 0
        self.accepted = 0
        self.psd_inside = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        # child-time accumulator per open span; slot 0 collects the
        # outermost spans, i.e. the covered time
        self._stack = [0.0]

    def _wrap(self, name, fn, extra):
        st = self.stats.setdefault(name, SpanStats())
        stack = self._stack
        clock = perf_counter
        psd = self.stats.setdefault("hermitian.is_psd", SpanStats())

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            st.depth += 1
            psd_before = psd.calls
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - t0
                child = stack.pop()
                st.depth -= 1
                st.calls += 1
                st.self_s += dt - child
                if not st.depth:
                    st.incl_s += dt
                stack[-1] += dt
                if extra == "bytes_in":
                    st.bytes += len(args[0])
                elif extra == "bytes_out" and result is not None:
                    st.bytes += len(result)
                elif extra == "accepted" and result is not None:
                    st.accepted += len(result)
                    st.psd_inside += psd.calls - psd_before

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        """Wrap every entry point in `SPANS`; call once per process."""
        packages = [mod for key, mod in sys.modules.items()
                    if key == "hermfj" or key.startswith("hermfj.")]
        for name, module, owner, attr, extra in SPANS:
            mod = sys.modules[module]
            if owner is not None:
                cls = getattr(mod, owner)
                original = cls.__dict__[attr]
                wrapper = self._wrap(name, original, extra)
                for key, value in list(cls.__dict__.items()):
                    if value is original:
                        setattr(cls, key, wrapper)
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(name, original, extra)
            for pkg in packages:
                for key, value in list(vars(pkg).items()):
                    if value is original:
                        setattr(pkg, key, wrapper)

    @property
    def covered_s(self) -> float:
        return self._stack[0]

    def report(self, wall_s: float) -> dict:
        """Counts, times and shares, keyed by per-layer metric name."""
        out = {}
        for name, st in sorted(self.stats.items()):
            out[name + ".calls"] = st.calls
            out[name + ".self_s"] = st.self_s
            out[name + ".incl_s"] = st.incl_s
        out["formats.read.bytes"] = self.stats["formats.read"].bytes
        out["formats.write.bytes"] = self.stats["formats.write"].bytes
        enum = self.stats["hermitian.enumerate_semi_integral"]
        out["hermitian.enumerate_semi_integral.accept_ratio"] = (
            enum.accepted / enum.psd_inside if enum.psd_inside else 0.0
        )
        inits = self.stats["hermitian.HermMatrix.init"].calls
        out["hermitian.hermicity_checks_per_matrix"] = (
            self.stats["linalg.is_hermitian"].calls / inits if inits else 0.0
        )
        for layer in LAYERS:
            own = sum(st.self_s for name, st in self.stats.items()
                      if name.split(".", 1)[0] == layer)
            out["layer.%s.self_share" % layer] = own / wall_s
        out["trace.uncovered_share"] = (wall_s - self.covered_s) / wall_s
        return out
