"""Span tracing of wh3's layers, installed from outside the package.

Each public function or method named in LAYERS is replaced by a wrapper,
both on its owner and everywhere a wh3 module imported it by name.  A span
records (name, start, end, parent span, run id) in flat arrays that stay in
memory until `write` stores them once.  A span whose parent has the same
name is not recorded: `Scalar.inverse` calling `__truediv__` is one division.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import Counter

# metric prefix -> (module, class or None, attribute names)
LAYERS = {
    "scalars.mul": ("wh3.scalars", "Scalar", ("__mul__",)),
    "scalars.add": ("wh3.scalars", "Scalar", ("__add__", "__sub__", "__rsub__")),
    "scalars.div": ("wh3.scalars", "Scalar", ("__truediv__", "__rtruediv__", "inverse")),
    "scalars.substitute": ("wh3.scalars", "Scalar", ("substitute",)),
    "scalars.eval_mod": ("wh3.scalars", "Scalar", ("eval_mod",)),
    "ncalg.orient": ("wh3.ncalg", None, ("orient",)),
    "ncalg.normalize": ("wh3.ncalg", "RuleSystem", ("normalize",)),
    "ncalg.element_mul": ("wh3.ncalg", "Element", ("__mul__",)),
    "ncalg.overlap_resolve": ("wh3.ncalg", None, ("overlap_resolve",)),
    "ncalg.member": ("wh3.ncalg", "MembershipOracle", ("member",)),
    "ncalg.span_compare": ("wh3.ncalg", None, ("span_compare",)),
    "linalg.scalar_echelon.insert": ("wh3.linalg", "ScalarEchelon", ("insert",)),
    "linalg.scalar_echelon.reduce": ("wh3.linalg", "ScalarEchelon", ("reduce",)),
    "linalg.mod_echelon.insert": ("wh3.linalg", "ModEchelon", ("insert",)),
    "linalg.mod_echelon.reduce": ("wh3.linalg", "ModEchelon", ("reduce",)),
    "linalg.eval_vec_mod": ("wh3.linalg", None, ("eval_vec_mod",)),
    "linalg.solve_linear": ("wh3.linalg", None, ("solve_linear",)),
    "catalog.cmatrix_inverse": ("wh3.catalog", "CMatrix", ("inverse",)),
    "exprs.parse": ("wh3.exprs", None, ("parse_element", "parse_scalar")),
    "cli": ("wh3.cli", None, ("run",)),
}

# Hot, memoized or trivial entry points that are counted without a span,
# keyed by metric name.
COUNTED = {
    "ncalg.normalize_word.calls": ("wh3.ncalg", "RuleSystem", "normalize_word"),
    "linalg.modular_points": ("wh3.linalg", "ModularPoint", "generate"),
}


class Tracer:
    """In-memory span store plus event counters for one traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.run_id = 0
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn, observe=None):
        """fn inside a span; name is a string or a function of the call's args."""
        names, parent, run, start, end = self.name, self.parent, self.run, self.start, self.end
        stack, clock = self.stack, time.perf_counter
        fixed = None if callable(name) else self.name_id(name)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            nid = fixed if fixed is not None else self.name_id(name(args))
            if stack and names[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            run.append(self.run_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapped

    def count(self, name, fn, observe=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapped

    # -- installation -------------------------------------------------------

    def _replace(self, module_name, class_name, attr, make):
        """Swap owner.attr for make(original), with its aliases and by-name imports.

        Aliases such as `__rmul__ = __mul__` share the wrapper, so list only
        the canonical name of each function in LAYERS.
        """
        owner = sys.modules[module_name]
        if class_name is not None:
            owner = getattr(owner, class_name)
        raw = vars(owner)[attr]
        is_static = isinstance(raw, staticmethod)
        original = raw.__func__ if is_static else raw
        wrapped = make(original)
        self._set(owner, attr, staticmethod(wrapped) if is_static else wrapped)
        holders = [owner] if class_name is not None else [
            module for name, module in list(sys.modules.items())
            if module is not None and (name == "wh3" or name.startswith("wh3."))
        ]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._set(holder, key, wrapped)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every layer of an imported wh3; undo with `uninstall`."""
        import wh3.catalog, wh3.cli, wh3.exprs, wh3.linalg, wh3.ncalg, wh3.scalars, wh3.verify  # noqa: F401,E401
        from wh3.scalars import Scalar

        counts = self.counts

        def by_one(args, kwargs, result):
            a, b = args
            if a.is_one or (b.is_one if isinstance(b, Scalar) else b == 1):
                counts["scalars.mul.by_one"] += 1

        def member_route(args, kwargs, result):
            if result.route in ("trivial", "reduction"):
                counts["ncalg.member.reduction"] += 1
            if result.mode == "modular":
                counts["ncalg.member.modular"] += 1

        def useful(prefix):
            def observe(args, kwargs, result):
                if result is not None:
                    counts[prefix + ".useful"] += 1
            return observe

        def retry(args, kwargs, result):
            if result.attempt > 0:
                counts["linalg.modular_retries"] += 1

        observers = {
            "scalars.mul": by_one,
            "ncalg.member": member_route,
            "linalg.scalar_echelon.insert": useful("linalg.scalar_echelon.insert"),
            "linalg.mod_echelon.insert": useful("linalg.mod_echelon.insert"),
        }
        for prefix, (module, cls, attrs) in LAYERS.items():
            for attr in attrs:
                self._replace(module, cls, attr,
                              lambda fn, p=prefix: self.wrap(p, fn, observers.get(p)))
        for name, (module, cls, attr) in COUNTED.items():
            observe = retry if name == "linalg.modular_points" else None
            self._replace(module, cls, attr, lambda fn, n=name, o=observe: self.count(n, fn, o))
        # inclusive time per check: the id is run_check's first argument
        self._replace("wh3.verify", None, "run_check",
                      lambda fn: self.wrap(lambda args: f"verify.{args[0]}", fn))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results --------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        self_s = [e - s for s, e in zip(self.start, self.end)]
        for idx, par in enumerate(self.parent):
            if par >= 0:
                self_s[par] -= self.end[idx] - self.start[idx]
        return self_s

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, self and inclusive time, and the ratios over their bases."""
        calls: Counter = Counter()
        self_total: Counter = Counter()
        incl_total: Counter = Counter()
        for nid, s, e, own in zip(self.name, self.start, self.end, self.self_times()):
            name = self.names[nid]
            calls[name] += 1
            self_total[name] += own
            incl_total[name] += e - s
        out: dict[str, float] = {}
        for name in LAYERS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_total[name]
        for name in self.names:
            if name.startswith("verify."):
                out[f"{name}.s"] = incl_total[name]
        for name in list(COUNTED) + ["linalg.modular_retries"]:
            out[name] = self.counts[name]

        def share(part: str, whole: str) -> float:
            return self.counts[part] / calls[whole] if calls[whole] else 0.0

        out["scalars.mul.by_one_share"] = share("scalars.mul.by_one", "scalars.mul")
        out["ncalg.member.reduction_share"] = share("ncalg.member.reduction", "ncalg.member")
        out["ncalg.member.modular_share"] = share("ncalg.member.modular", "ncalg.member")
        for prefix in ("linalg.scalar_echelon.insert", "linalg.mod_echelon.insert"):
            out[f"{prefix}.useful_share"] = share(f"{prefix}.useful", prefix)
        return out

    def check_nesting(self) -> list[int]:
        """Indices of spans that are not inside their parent or its run."""
        bad = []
        for idx, par in enumerate(self.parent):
            if par >= 0 and not (self.start[par] <= self.start[idx] <= self.end[idx] <= self.end[par]
                                 and self.run[par] == self.run[idx]):
                bad.append(idx)
        return bad

    def write(self, path):
        """Store all spans: a JSON header line, then the five arrays' raw bytes."""
        header = {"names": self.names, "count": len(self.start),
                  "arrays": [["name", "i"], ["parent", "i"], ["run", "i"],
                             ["start", "d"], ["end", "d"]],
                  "byteorder": sys.byteorder}
        with gzip.open(path, "wb", compresslevel=1) as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.run, self.start, self.end):
                arr.tofile(handle)


def read_spans(path) -> dict[str, list]:
    """Load a file written by Tracer.write into lists keyed by field name."""
    with gzip.open(path, "rb") as handle:
        header = json.loads(handle.readline())
        out = {"names": header["names"]}
        for field, code in header["arrays"]:
            arr = array(code)
            arr.frombytes(handle.read(arr.itemsize * header["count"]))
            out[field] = arr.tolist()
    return out
