"""Layer tracing from outside the package.

``Tracer.install`` wraps the package's public functions and methods with
span recorders.  A span is (id, parent id, operation id, name, start, end);
spans stay in memory until the run writes them out.  A function imported
with ``from ... import`` is wrapped in every module namespace that holds it,
so callers that look the name up locally are traced too.

With ``counting=True`` the tracer also counts what timing would distort:
every ``QiScalar`` add/sub/mul/inverse, thread starts, whether each ``rref``
result is new, whether its input content was already reduced in the same
operation, and the largest bit length in ``rref`` and ``determinant``
outputs.  Counts are kept per thread, because the suite thread pool runs
instances concurrently.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import Counter

# (module, attribute, span name).  A class's __init__ is wrapped for classes.
FUNCTIONS = (
    ("cli", "run_request", "cli.run_request"),
    ("suites", "run_suite", "suites.run_suite"),
    ("koszul", "joint_torsion_quad", "koszul.joint_torsion_quad"),
    ("koszul", "joint_torsion_pair", "koszul.joint_torsion_pair"),
    ("koszul", "build_eps_sequences", "koszul.build_eps_sequences"),
    ("koszul", "perturbation_sigma", "koszul.perturbation_sigma"),
    ("koszul", "pseudoinv_formula", "koszul.pseudoinv_formula"),
    ("complexes", "torsion_scalar", "complexes.torsion_scalar"),
    ("linalg", "build_subquotient", "linalg.build_subquotient"),
    ("linalg", "induced_map", "linalg.induced_map"),
    ("linalg", "in_span", "linalg.in_span"),
    ("toeplitz", "toeplitz_joint_torsion", "toeplitz.toeplitz_joint_torsion"),
    ("toeplitz", "tame_symbol", "toeplitz.tame_symbol"),
    ("fredholm", "numeric_det_invariant", "fredholm.numeric_det_invariant"),
    ("fredholm", "exp_symbol_coeffs", "fredholm.exp_symbol_coeffs"),
    ("fredholm", "toeplitz_matrix", "fredholm.toeplitz_matrix"),
)
CLASSES = (
    ("koszul", "QuadHomology", "koszul.QuadHomology"),
    ("complexes", "BasedExactSequence", "complexes.BasedExactSequence"),
    ("complexes", "ChainComplexSpec", "complexes.ChainComplexSpec"),
)
METHODS = (
    ("linalg", "ExactMatrix", "rref", "linalg.rref"),
    ("linalg", "ExactMatrix", "__mul__", "linalg.matmul"),
    ("linalg", "ExactMatrix", "determinant", "linalg.determinant"),
)
RANDGEN_SPAN = "randgen"
INSTANCE_SPAN = "suites.instance"
SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "inverse")


def _bits(scalars) -> int:
    best = 0
    for s in scalars:
        best = max(best, abs(s.re_num).bit_length(), s.re_den.bit_length(),
                   abs(s.im_num).bit_length(), s.im_den.bit_length())
    return best


class Tracer:
    def __init__(self, counting: bool = False):
        self.counting = counting
        self.spans = []
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._counters = []
        self._patches = []
        self._op_lock = threading.Lock()
        self.start_op(0)

    # -- per-thread state ----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _thread_counters(self):
        state = getattr(self._local, "counters", None)
        if state is None:
            state = self._local.counters = (Counter(), {})
            self._counters.append(state)
        return state

    def count(self, key: str, amount: int = 1) -> None:
        self._thread_counters()[0][key] += amount

    def count_max(self, key: str, value: int) -> None:
        maxima = self._thread_counters()[1]
        if value > maxima.get(key, 0):
            maxima[key] = value

    def counts(self) -> dict:
        """Counts summed over threads, and maxima taken over threads."""
        total = Counter()
        for sums, maxima in self._counters:
            total.update(sums)
        for _, maxima in self._counters:
            for key, value in maxima.items():
                total[key] = max(total[key], value)
        return dict(total)

    def start_op(self, op: int) -> None:
        self.op = op
        self._op_content = set()
        self._op_results = {}

    # -- wrappers --------------------------------------------------------------

    def _span(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stack = tracer._stack()
            # A pool thread starts with an empty stack; its spans belong to
            # whatever the main thread is waiting in (the suite run).
            parent = stack[-1] if stack else (
                tracer._main_stack[-1] if tracer._main_stack else 0)
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, tracer.op, name, start, end))
        return spanned

    def _counted(self, key, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.count(key)
            return fn(*args, **kwargs)
        return counted

    def _rref_counting(self, fn):
        tracer = self

        @functools.wraps(fn)
        def rref(matrix):
            result = fn(matrix)
            content = (matrix.rows, matrix.cols, matrix.entries)
            with tracer._op_lock:
                fresh = id(result) not in tracer._op_results
                tracer._op_results[id(result)] = result
                repeat = fresh and content in tracer._op_content
                tracer._op_content.add(content)
            if fresh:
                tracer.count("linalg.rref.fresh")
                tracer.count("linalg.rref.repeat_content", int(repeat))
                tracer.count_max("linalg.entry_bits_max", max(
                    _bits(getattr(result, part).entries)
                    for part in ("rref", "transform")
                    if getattr(result, part, None) is not None))
            return result
        return rref

    def _det_counting(self, fn):
        tracer = self

        @functools.wraps(fn)
        def determinant(matrix):
            value = fn(matrix)
            tracer.count_max("linalg.entry_bits_max", _bits((value,)))
            return value
        return determinant

    def _toeplitz_counting(self, fn):
        tracer = self

        @functools.wraps(fn)
        def toeplitz_matrix(coeffs, size):
            tracer.count("fredholm.toeplitz_matrix.arrays")
            tracer.count("fredholm.toeplitz_matrix.dim_sum", size)
            tracer.count("fredholm.bytes_computed", 16 * size * size)
            return fn(coeffs, size)
        return toeplitz_matrix

    # -- patching --------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper):
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "") or ""
            if not name.startswith("jointtorsion"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self) -> None:
        from jointtorsion import (cli, complexes, fredholm, koszul, linalg,
                                  randgen, scalars, suites, toeplitz)

        mods = {"cli": cli, "suites": suites, "koszul": koszul,
                "complexes": complexes, "linalg": linalg, "toeplitz": toeplitz,
                "fredholm": fredholm}
        for mod, attr, name in FUNCTIONS:
            original = getattr(mods[mod], attr)
            wrapped = original
            if self.counting and name == "fredholm.toeplitz_matrix":
                wrapped = self._toeplitz_counting(wrapped)
            self._replace_everywhere(original, self._span(name, wrapped))
        for mod, attr, name in CLASSES:
            cls = getattr(mods[mod], attr)
            self._set(cls, "__init__", self._span(name, cls.__dict__["__init__"]))
        for mod, cls_name, attr, name in METHODS:
            cls = getattr(mods[mod], cls_name)
            method = cls.__dict__[attr]
            if self.counting and attr == "rref":
                method = self._rref_counting(method)
            if self.counting and attr == "determinant":
                method = self._det_counting(method)
            self._set(cls, attr, self._span(name, method))
        for attr in [a for a in vars(randgen) if a.startswith(("random_", "child_rng"))]:
            original = getattr(randgen, attr)
            if callable(original):
                self._replace_everywhere(original, self._span(RANDGEN_SPAN, original))
        for suite, runner in list(suites.SUITES.items()):
            self._set_item(suites.SUITES, suite, self._span(INSTANCE_SPAN, runner))
        if self.counting:
            for attr in SCALAR_OPS:
                self._set(scalars.QiScalar, attr,
                          self._counted("scalars.ops", scalars.QiScalar.__dict__[attr]))
            self._set(threading.Thread, "start",
                      self._counted("suites.threads_started",
                                    threading.Thread.__dict__["start"]))

    def _set_item(self, mapping, key, value):
        self._patches.append((mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)


# -- summaries ----------------------------------------------------------------

def _union_length(intervals) -> float:
    total = 0.0
    end = None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def span_totals(spans) -> dict:
    """Per span name: total seconds (outermost spans of that name only) and
    total self seconds (duration minus the union of child intervals)."""
    by_id = {s[0]: s for s in spans}
    children: dict = {}
    for s in spans:
        children.setdefault(s[1], []).append(s)
    total: Counter = Counter()
    self_time: Counter = Counter()
    for sid, parent, _op, name, start, end in spans:
        kids = [(max(k[4], start), min(k[5], end)) for k in children.get(sid, ())]
        self_time[name] += (end - start) - _union_length(
            (a, b) for a, b in kids if b > a)
        ancestor = by_id.get(parent)
        while ancestor is not None and ancestor[3] != name:
            ancestor = by_id.get(ancestor[1])
        if ancestor is None:
            total[name] += end - start
    return {"total": total, "self": self_time}
