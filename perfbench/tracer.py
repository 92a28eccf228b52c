"""In-memory span tracer that wraps triform's layer entry points from outside.

Every entry point named in ENTRY_POINTS (and every scenario runner of the
verifier) is replaced by a wrapper that records one span per call: name,
start, end, parent span and job id.  Spans live in flat arrays and are
written out once, at the end of the run.  Calls, self time (duration minus the
time covered by child spans) and, for the coarse layers, total time are
accumulated as the spans close.

A wrapped function is replaced wherever the package holds it: as a module
global (including names other modules imported with ``from ... import``), as
a class attribute (including aliases such as ``Scalar.__radd__``) and as a
value of a module-level dict (the verifier's scenario table).  After
installing, ``audit`` asks the garbage collector who still refers to each
original function; any holder other than the tracer itself means calls would
bypass the wrapper, and installing fails.
"""

from __future__ import annotations

import gc
import json
import sys
import types
from array import array
from pathlib import Path
from time import perf_counter

# (layer, op, module, attribute path) of every wrapped entry point
ENTRY_POINTS = (
    ("cyclo", "mul", "triform.cyclo", "Cyclo.__mul__"),
    ("cyclo", "inverse", "triform.cyclo", "Cyclo.inverse"),
    ("scalars", "mul", "triform.scalars", "Scalar.__mul__"),
    ("scalars", "add", "triform.scalars", "Scalar.__add__"),
    ("scalars", "inverse", "triform.scalars", "Scalar.inverse"),
    ("scalars", "eq", "triform.scalars", "Scalar.__eq__"),
    ("scalars", "geometric_tail", "triform.scalars", "Scalar.geometric_tail"),
    ("scalars", "canonicalize", "triform.scalars", "_canonicalize"),
    ("scalars", "divexact", "triform.scalars", "Poly.divexact"),
    ("scalars", "poly_mul", "triform.scalars", "Poly.__mul__"),
    ("matrices", "iwasawa", "triform.matrices", "iwasawa"),
    ("cosets", "p1_table", "triform.cosets", "p1_table"),
    ("cosets", "cell_of_row", "triform.cosets", "P1Table.cell_of_row"),
    ("characters", "eval", "triform.characters", "SmoothCharacter.eval"),
    ("characters", "borel_eval", "triform.characters", "BorelCharacter.eval"),
    ("models", "table_eval", "triform.models", "TableSection.eval"),
    ("models", "section_eval", "triform.models", "Section.eval"),
    ("models", "fixed_space", "triform.models", "fixed_space"),
    ("models", "new_vector_by_solve", "triform.models", "new_vector_by_solve"),
    ("functionals", "phi_eval", "triform.functionals", "TorusFunctional.eval"),
    ("functionals", "tate_vector", "triform.functionals", "TorusFunctional.tate_vector"),
    ("functionals", "eval_reference", "triform.functionals", "TorusFunctional.eval_reference"),
    ("functionals", "Phi_eval", "triform.functionals", "Phi_eval"),
    ("trilinear", "ell_chain", "triform.trilinear", "ell_chain"),
    ("trilinear", "kernel_eval", "triform.trilinear", "KernelForm.eval"),
    ("trilinear", "ext", "triform.trilinear", "ext"),
)

# spans whose inclusive time is reported as <name>.total_s (besides the scenarios)
TOTAL_TIMED = ("trilinear.ell_chain", "trilinear.kernel_eval", "trilinear.ext")


class WrappingError(RuntimeError):
    pass


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.stats: list[list] = []  # per name: [calls, self_s, total_s, depth]
        self.job = [0]
        self._stack: list[list] = []  # open spans: [span index, child seconds]
        self.span_name = array("H")
        self.span_job = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._patches: list[tuple] = []
        self._originals: dict[str, object] = {}
        self._wrappers: list = []
        # counters derived from call arguments and results
        self.divexact_hits = 0
        self.max_terms = 0
        self.tate_keys: set = set()

    # -- wrapping ------------------------------------------------------------
    def _wrapper(self, name: str, fn, observe=None):
        idx = len(self.names)
        self.names.append(name)
        stat = [0, 0.0, 0.0, 0]
        self.stats.append(stat)
        stack, job = self._stack, self.job
        s_name, s_job, s_parent = self.span_name, self.span_job, self.span_parent
        s_start, s_end = self.span_start, self.span_end
        clock = perf_counter

        def traced(*args, **kwargs):
            i = len(s_start)
            s_name.append(idx)
            s_job.append(job[0])
            s_parent.append(stack[-1][0] if stack else -1)
            s_end.append(0.0)
            frame = [i, 0.0]
            stack.append(frame)
            stat[3] += 1
            t0 = clock()
            s_start.append(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                s_end[i] = t1
                dur = t1 - t0
                stat[0] += 1
                stat[1] += dur - frame[1]
                stat[3] -= 1
                if not stat[3]:
                    stat[2] += dur
                if stack:
                    stack[-1][1] += dur
            if observe is not None:
                observe(args, out)
            return out

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def _replace_everywhere(self, orig, wrapper) -> int:
        """Point every reference the package holds to `orig` at `wrapper`."""
        sites = 0
        for modname, mod in list(sys.modules.items()):
            if not (modname == "triform" or modname.startswith("triform.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._patches.append((mod, key, orig))
                    setattr(mod, key, wrapper)
                    sites += 1
                elif isinstance(val, type) and val.__module__ == modname:
                    for attr, member in list(vars(val).items()):
                        if member is orig:
                            self._patches.append((val, attr, orig))
                            setattr(val, attr, wrapper)
                            sites += 1
                elif isinstance(val, dict):
                    for dkey, dval in list(val.items()):
                        if dval is orig:
                            self._patches.append((val, dkey, orig))
                            val[dkey] = wrapper
                            sites += 1
        return sites

    def install(self, verifier):
        observers = {
            "scalars.divexact": self._observe_divexact,
            "scalars.canonicalize": self._observe_canonicalize,
            "functionals.tate_vector": self._observe_tate,
        }
        targets = []
        for layer, op, modname, path in ENTRY_POINTS:
            owner = sys.modules[modname]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            targets.append((f"{layer}.{op}", vars(owner)[attr]))
        for sid in verifier.SCENARIOS:
            targets.append((f"verifier.{sid}", verifier._RUNNERS[sid]))
        for name, orig in targets:
            if not isinstance(orig, types.FunctionType):
                raise WrappingError(f"{name}: expected a plain function, found {type(orig).__name__}")
            wrapper = self._wrapper(name, orig, observers.get(name))
            if not self._replace_everywhere(orig, wrapper):
                raise WrappingError(f"{name}: no reference found to replace")
            self._originals[name] = orig
            self._wrappers.append(wrapper)
        del targets, orig
        self.audit()

    def audit(self):
        """Fail if anything but the tracer still refers to an original function."""
        ours = {id(self._patches), id(self._originals)} | {id(p) for p in self._patches}
        ours |= {id(cell) for w in self._wrappers for cell in w.__closure__}
        gc.collect()
        for name in list(self._originals):  # an items() iterator would hold a (name, orig) tuple
            for ref in gc.get_referrers(self._originals[name]):
                if id(ref) not in ours and not isinstance(ref, types.FrameType):
                    raise WrappingError(f"{name} is still reachable unwrapped through a {type(ref).__name__}")

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._patches.clear()
        self._originals.clear()
        self._wrappers.clear()

    # -- observers -------------------------------------------------------------
    def _observe_divexact(self, args, out):
        if out is not None:
            self.divexact_hits += 1

    def _observe_canonicalize(self, args, out):
        n = len(args[1].terms)
        if n > self.max_terms:
            self.max_terms = n

    def _observe_tate(self, args, out):
        functional, level, x0_key = args
        self.tate_keys.add((self.job[0], id(functional), level, x0_key))

    # -- results ---------------------------------------------------------------
    def counts(self) -> dict:
        """Calls per wrapped name, plus the argument-derived maxima."""
        out = {name: stat[0] for name, stat in zip(self.names, self.stats)}
        out["scalars.canonicalize.max_terms"] = self.max_terms
        return out

    def metrics(self) -> dict:
        out = {}
        for name, (calls, self_s, total_s, _) in zip(self.names, self.stats):
            if name.startswith("verifier."):
                out[f"{name}.total_s"] = total_s
                continue
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            if name in TOTAL_TIMED:
                out[f"{name}.total_s"] = total_s
        calls = self.counts()
        div = calls["scalars.divexact"]
        out["scalars.divexact.hit_ratio"] = self.divexact_hits / div if div else 0.0
        out["scalars.canonicalize.max_terms"] = self.max_terms
        tate = calls["functionals.tate_vector"]
        out["functionals.tate_vector.distinct"] = len(self.tate_keys)
        out["functionals.tate_vector.hit_ratio"] = 1 - len(self.tate_keys) / tate if tate else 0.0
        return out

    def write_spans(self, stem: Path) -> int:
        """Write the spans as <stem>.spans.bin (column arrays) and a JSON header."""
        columns = [
            ("name", self.span_name),
            ("job", self.span_job),
            ("parent", self.span_parent),
            ("start", self.span_start),
            ("end", self.span_end),
        ]
        header = {
            "names": self.names,
            "count": len(self.span_start),
            "byteorder": sys.byteorder,
            "columns": [[col, arr.typecode] for col, arr in columns],
        }
        with open(f"{stem}.spans.bin", "wb") as fh:
            for _, arr in columns:
                arr.tofile(fh)
        with open(f"{stem}.spans.json", "w") as fh:
            json.dump(header, fh, indent=1)
        return header["count"]
