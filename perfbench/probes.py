"""Per-module probes for the traced benchmark run.

Each probe wraps a library function at every name its callers look it up by
(``deltacodes.codes.successor`` as well as ``deltacodes.semigroup.successor``),
so the library itself stays untouched.  Timed probes keep a span stack: a
probe's time is inclusive, counted only for its outermost active call, and
the scan additionally reports its self time (its span minus the spans of the
probes called inside it).  Hot tiny calls are counted, not timed.
"""

from __future__ import annotations

import importlib
import sys
import time

# metric prefix -> sites "module:attribute" or "module:Class.method".
TIMED = {
    "minweight.search": ["codes:min_dependent_columns"],
    "codes.scan": ["codes:scan_table", "cli:scan_table"],
    "codes.row_eval": ["codes:EvalMap.row"],
    "codes.goppa": ["codes:goppa_distance"],
    "semigroup.successor": ["semigroup:successor", "codes:successor"],
    "semigroup.enumerate": [
        "semigroup:enumerate_upto",
        "cli:enumerate_upto",
        "approximants:enumerate_upto",
    ],
    "semigroup.represent": [
        "semigroup:represent",
        "codes:represent",
        "approximants:represent",
    ],
    "genesis.extend_n": ["genesis:extend_n", "semigroup:extend_n", "codes:extend_n"],
    "deltaseq.validate_n": [
        "deltaseq:validate_n",
        "genesis:validate_n",
        "semigroup:validate_n",
        "approximants:validate_n",
        "cli:validate_n",
    ],
    "deltaseq.members_below": [
        "deltaseq:members_below",
        "semigroup:members_below",
        "codes:members_below",
    ],
    "approximants.basis_element": [
        "approximants:basis_element",
        "codes:basis_element",
    ],
    "approximants.build": ["approximants:build_approximates", "cli:build_approximates"],
    # The table build runs once per field, on the first arithmetic in it.
    "gf.tables": ["gf:_Tables.__init__"],
}
COUNTED = {
    "semigroup.compare_calls": ["semigroup:compare", "codes:compare"],
    "quadratics.quadext_new": ["quadratics:QuadExt.__post_init__"],
    "gf.element_ops": [
        f"gf:FieldElement.{op}"
        for op in ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__", "__pow__", "inverse")
    ],
}


def _resolve(site: str):
    """(owner object, attribute name) of a probe site, or None when the
    library no longer has it."""
    module_name, _, path = site.partition(":")
    try:
        owner = importlib.import_module(f"deltacodes.{module_name}")
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class Probes:
    """Wrappers and their totals for one worker process."""

    def __init__(self) -> None:
        self.seconds = dict.fromkeys(TIMED, 0.0)
        self.calls = dict.fromkeys(TIMED, 0)
        self.longest = dict.fromkeys(TIMED, 0.0)
        self.counts = {name: [0] for name in COUNTED}
        self.depth = dict.fromkeys(TIMED, 0)
        self.stack: list[list[float]] = []  # [start, time in child spans]
        self.scan_self = 0.0
        self.rows_out = 0
        self.rows_with_d = 0
        self.members = 0
        self.missing: list[str] = []
        self._wrapped: dict[object, object] = {}

    def install(self) -> None:
        for name, sites in TIMED.items():
            for site in sites:
                self._patch(site, lambda fn, name=name: self._timed(name, fn))
        for name, sites in COUNTED.items():
            for site in sites:
                self._patch(site, lambda fn, name=name: self._counted(name, fn))
        if self.missing:
            print("perfbench: probe sites missing: " + ", ".join(self.missing), file=sys.stderr)

    def _patch(self, site: str, make) -> None:
        found = _resolve(site)
        if found is None:
            self.missing.append(site)
            return
        owner, attr = found
        fn = getattr(owner, attr)
        # One wrapper per function, shared by every name it is bound to.
        if fn not in self._wrapped:
            self._wrapped[fn] = make(fn)
        setattr(owner, attr, self._wrapped[fn])

    def _counted(self, name: str, fn):
        cell = self.counts[name]

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _timed(self, name: str, fn):
        stack, depth, clock = self.stack, self.depth, time.perf_counter

        def timed(*args, **kwargs):
            self.calls[name] += 1
            if depth[name]:
                return fn(*args, **kwargs)
            depth[name] += 1
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[0]
                stack.pop()
                depth[name] -= 1
                if stack:
                    stack[-1][1] += elapsed
                self.seconds[name] += elapsed
                self.longest[name] = max(self.longest[name], elapsed)
                if name == "codes.scan":
                    self.scan_self += elapsed - frame[1]
            if name == "codes.scan":
                self.rows_out += len(result)
                self.rows_with_d += sum(1 for row in result if row.d is not None)
            elif name == "semigroup.enumerate":
                self.members += len(result)
            return result

        return timed

    def totals(self) -> dict:
        """Probe totals of this process, as metric name -> value."""
        out: dict[str, float] = {}
        for name in TIMED:
            out[f"{name}_s"] = self.seconds[name]
            out[f"{name}_calls"] = self.calls[name]
        out["minweight.calls"] = out.pop("minweight.search_calls")
        out["codes.row_calls"] = out.pop("codes.row_eval_calls")
        out["minweight.search_max_s"] = self.longest["minweight.search"]
        for name, cell in self.counts.items():
            out[name] = cell[0]
        out["codes.scan_self_s"] = self.scan_self
        out["codes.rows_out"] = self.rows_out
        out["codes.rows_with_d"] = self.rows_with_d
        out["semigroup.enumerate_members"] = self.members
        return out
