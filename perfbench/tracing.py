"""Span tracing of xradon's public functions, installed from outside the package.

`Tracer.install` replaces every public function of each xradon module by a
wrapper that records a span (name, start, end, parent, op).  A function bound
into another module by `from .x import y` is the same object, so it is
replaced there too; a name missed this way would show as lost `trace.coverage`.
Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import os
from collections import Counter

import numpy as np

LAYER_MODULES = ("geometry", "phantom", "xform", "hilbert", "inversion", "cli")

# Per-layer metrics (name, unit), reported per round of the workload.
_FUNCTION_METRICS = (
    ("phantom.halfline_integral", ("calls", "rows", "prim_evals", "self_s", "bytes_computed")),
    ("phantom.plane_integral", ("calls", "samples", "self_s")),
    ("phantom.evaluate", ("calls", "points", "self_s")),
    ("xform.radon_profile", ("calls", "self_s")),
    ("xform.line_transform", ("calls", "self_s")),
    ("xform.write_xray_csv", ("rows", "bytes", "self_s")),
    ("xform.write_profile_csv", ("calls", "bytes", "self_s")),
    ("xform.read_profile_csv", ("calls", "bytes", "self_s")),
    ("hilbert.hilbert_spectral", ("calls", "samples", "self_s")),
    ("hilbert.derivative", ("calls", "self_s")),
    ("hilbert.sample_cubic", ("calls", "queries", "self_s", "queries_per_call")),
    ("inversion.reconstruct_volume", ("self_s",)),
    ("inversion.invert_point", ("calls", "self_s")),
    ("inversion.calibrate_normalization", ("calls", "self_s")),
    ("inversion.lemma9_diagnostic", ("calls", "self_s")),
    ("inversion.grangeat_convert", ("calls", "self_s")),
    ("inversion.build_radon_dataset", ("calls", "self_s")),
    ("inversion.write_volume", ("bytes", "self_s")),
    ("geometry.fibonacci_sphere", ("calls", "self_s")),
    ("cli.main", ("calls", "self_s")),
)
# Metrics that sum over a group of functions: reported name -> prefix of the
# qualified names it covers (the three reconstruct_volume_* and the invert_*
# point functions today).
_GROUPS = {
    "inversion.reconstruct_volume": "inversion.reconstruct_volume",
    "inversion.invert_point": "inversion.invert_",
}
_UNITS = {"self_s": "s", "bytes": "B", "bytes_computed": "B"}

LAYER_METRICS = tuple(
    (f"{name}.{field}", _UNITS.get(field, "count"))
    for name, fields in _FUNCTION_METRICS
    for field in fields
) + (
    ("hilbert.filter_useful_ratio", "ratio"),
    ("check.rel_err", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _halfline(tr, args, kwargs, result):
    x, n = _arg(args, kwargs, 1, "x"), _arg(args, kwargs, 2, "n")
    rows = int(np.prod(np.broadcast_shapes(np.shape(x), np.shape(n))[:-1]))
    tr.count("phantom.halfline_integral", rows=rows, bytes_computed=rows * 7 * 8,
             prim_evals=rows * len(_arg(args, kwargs, 0, "ph").primitives))


def _file_bytes(*paths):
    return sum(os.path.getsize(p) for p in paths)


def _profile_key(p):
    return hash((p.s_min, p.s_max, np.asarray(p.values).tobytes()))


def _filter(name, samples=False):
    """Count the profiles a Hilbert/derivative stage filters.

    A stage whose input is another stage's output continues a filtering
    chain; any other input starts one.  filter_useful_ratio is the number of
    distinct (first stage, input profile) pairs over the number of chains
    started, so filtering one profile again in the same way counts as waste.
    """

    def extract(tr, args, kwargs, result):
        p = _arg(args, kwargs, 0, "p")
        key = _profile_key(p)
        if key not in tr.filter_outputs:
            tr.filter_chains += 1
            tr.filter_inputs.add((name, key))
        tr.filter_outputs.add(_profile_key(result))
        if samples:
            tr.count(name, samples=np.size(p.values))

    return extract


_EXTRACTORS = {
    "phantom.halfline_integral": _halfline,
    "phantom.plane_integral": lambda tr, a, k, r: tr.count(
        "phantom.plane_integral", samples=np.size(_arg(a, k, 2, "s"))),
    "phantom.evaluate": lambda tr, a, k, r: tr.count(
        "phantom.evaluate", points=np.size(_arg(a, k, 1, "x")) // 3),
    "xform.write_xray_csv": lambda tr, a, k, r: tr.count(
        "xform.write_xray_csv", rows=np.size(_arg(a, k, 3, "values")),
        bytes=_file_bytes(_arg(a, k, 0, "path"))),
    "xform.write_profile_csv": lambda tr, a, k, r: tr.count(
        "xform.write_profile_csv", bytes=_file_bytes(_arg(a, k, 0, "path"))),
    "xform.read_profile_csv": lambda tr, a, k, r: tr.count(
        "xform.read_profile_csv", bytes=_file_bytes(_arg(a, k, 0, "path"))),
    "hilbert.hilbert_spectral": _filter("hilbert.hilbert_spectral", samples=True),
    "hilbert.derivative": _filter("hilbert.derivative"),
    "hilbert.sample_cubic": lambda tr, a, k, r: tr.count(
        "hilbert.sample_cubic", queries=np.size(_arg(a, k, 1, "s"))),
    "inversion.write_volume": lambda tr, a, k, r: tr.count(
        "inversion.write_volume",
        bytes=_file_bytes(_arg(a, k, 0, "data_path"), _arg(a, k, 1, "meta_path"))),
}


class Tracer:
    """Records spans of wrapped functions; per-round counters feed the layer metrics."""

    def __init__(self, clock):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1, op index]
        self.stack = []
        self.op = -1
        self.counters = Counter()
        self.filter_inputs, self.filter_outputs, self.filter_chains = set(), set(), 0
        self.useful_ratios = []
        self.extract_errors = Counter()
        self.wrapped = set()
        self._patched = []

    def count(self, name, **fields):
        for field, value in fields.items():
            self.counters[f"{name}.{field}"] += value

    def end_round(self):
        self.useful_ratios.append(
            len(self.filter_inputs) / self.filter_chains if self.filter_chains else 0.0
        )
        self.filter_inputs, self.filter_outputs, self.filter_chains = set(), set(), 0

    def install(self, package):
        modules = []
        for short in LAYER_MODULES:
            try:
                modules.append((short, importlib.import_module(f"{package}.{short}")))
            except ModuleNotFoundError:
                continue
        wrappers = {}
        for short, mod in modules:
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = self._wrap(obj, f"{short}.{attr}")
        targets = [mod for _, mod in modules] + [importlib.import_module(package)]
        for mod in targets:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched = []

    def _wrap(self, fn, name):
        self.wrapped.add(name)
        extract = _EXTRACTORS.get(name)
        spans, stack, clock = self.spans, self.stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = [name, start, end, parent, self.op]
            if extract is not None:
                try:
                    extract(self, args, kwargs, result)
                except Exception:  # a changed signature must not fail the op
                    self.extract_errors[name] += 1
            return result

        return traced

    def layer_metrics(self, rounds, traced_wall):
        """Per-round layer metrics over the recorded spans; absent functions read 0."""
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        calls, self_s = Counter(), Counter()
        covered = 0.0
        cli_chain = [False] * len(self.spans)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - children[i]
            outer_is_cli = parent < 0 or cli_chain[parent]
            cli_chain[i] = name.startswith("cli.") and outer_is_cli
            if outer_is_cli and not name.startswith("cli."):
                covered += end - start
        values = {}
        for name, fields in _FUNCTION_METRICS:
            members = self._members(name)
            n_calls = sum(calls[m] for m in members)
            for field in fields:
                if field == "calls":
                    v = n_calls / rounds
                elif field == "self_s":
                    v = sum(self_s[m] for m in members) / rounds
                elif field == "queries_per_call":
                    v = self.counters[f"{name}.queries"] / n_calls if n_calls else 0.0
                else:
                    v = self.counters[f"{name}.{field}"] / rounds
                values[f"{name}.{field}"] = v
        values["hilbert.filter_useful_ratio"] = (
            sum(self.useful_ratios) / len(self.useful_ratios) if self.useful_ratios else 0.0
        )
        values["trace.coverage"] = covered / traced_wall if traced_wall > 0 else 0.0
        return values

    def _members(self, name):
        prefix = _GROUPS.get(name)
        if prefix is None:
            return [name] if name in self.wrapped else []
        return sorted(n for n in self.wrapped if n.startswith(prefix))

    def absent(self):
        """Named layer functions that the program no longer has."""
        return [name for name, _ in _FUNCTION_METRICS if not self._members(name)]

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "names": names,
                    "spans": [[index[n], s, e, p, op] for n, s, e, p, op in self.spans],
                },
                fh,
                separators=(",", ":"),
            )
