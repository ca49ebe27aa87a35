"""Layer tracing from outside the program.

A traced run rebinds the public entry points of each ``privauction`` layer to
wrappers that record one span per call: name, start, end, parent span, op id
and a tag (``float``/``rational`` halves of a truthfulness op). Spans are kept
in flat arrays in memory and written out once, when the run ends. Self time
is a span's duration minus the durations of its direct children, so the
per-layer self times of an op plus the op's own remainder add up to the op's
traced wall time.
"""

import sys
import time
from array import array
from contextlib import contextmanager
from functools import wraps

import numpy as np

OP_SPAN = "bench.op"
TAGS = ("", "float", "rational")


def _branch_is_star(outcome) -> float:
    return 1.0 if outcome.branch == "star" else 0.0


def _dropped_share(derived) -> float:
    return len(derived.dropped) / (len(derived.kept) + len(derived.dropped))


# (span name, owner path, attribute, per-call value taken from the result).
# An owner path "module" names a module whose function is also rebound in
# every privauction module that imported it by name; "module:Class" names a
# class attribute; "privauction.cli:weights" names a click command callback.
TARGETS = (
    ("predictors.load_csv", "privauction.predictors", "load_feature_csv", None),
    ("predictors.derive", "privauction.predictors:WeightSpec", "derive", _dropped_share),
    ("predictors.build_instance", "privauction.predictors", "build_instance", None),
    ("cli.weights", "privauction.cli:weights", "callback", None),
    ("cli.run", "privauction.cli:run", "callback", None),
    ("instances.parse", "privauction.instances", "parse_instance", None),
    ("instances.parse", "privauction.instances", "parse_database", None),
    ("instances.filter", "privauction.instances", "filter_assumption1", lambda r: len(r[1])),
    ("instances.canonicalize", "privauction.instances", "canonicalize", None),
    ("instances.validate", "privauction.instances:AuctionInstance", "__init__", None),
    ("mechanism.fair_inner_product", "privauction.mechanism", "fair_inner_product", _branch_is_star),
    ("estimator.epsilons", "privauction.estimator:Dclef", "epsilons", None),
    ("estimator.dclef", "privauction.estimator:Dclef", "__init__", None),
    ("estimator.evaluate", "privauction.estimator", "evaluate", None),
    ("optimal.brute_force_opt", "privauction.optimal", "brute_force_opt", None),
    ("optimal.fractional_optimum", "privauction.optimal", "fractional_optimum", None),
    ("optimal.kkt_certificate", "privauction.optimal", "kkt_certificate", None),
    ("optimal.opt_bounds_check", "privauction.optimal", "opt_bounds_check", None),
    ("verify.generate_instance", "privauction.verify", "generate_instance", None),
    ("verify.misreport_grid", "privauction.verify", "misreport_grid", len),
    ("verify.sweep", "privauction.verify", "run_truthfulness_sweep", None),
    ("verify.sweep", "privauction.verify", "run_approximation_sweep", None),
)

# Per-layer metrics: (name, unit, kind, span). Kinds: "self" is self time per
# op, "count" calls per op, "value" the summed per-call value per op, "share"
# the mean per-call value. Every span name is the subject of exactly one
# "self" metric, so the self metrics plus bench.op_self_s sum to bench.op_s.
LAYER_METRICS = (
    ("predictors.load_csv_s", "s", "self", "predictors.load_csv"),
    ("predictors.derive_s", "s", "self", "predictors.derive"),
    ("predictors.build_instance_s", "s", "self", "predictors.build_instance"),
    ("predictors.dropped_share", "ratio", "share", "predictors.derive"),
    ("cli.weights_self_s", "s", "self", "cli.weights"),
    ("cli.run_self_s", "s", "self", "cli.run"),
    ("instances.parse_s", "s", "self", "instances.parse"),
    ("instances.filter_s", "s", "self", "instances.filter"),
    ("instances.filter_calls", "count", "count", "instances.filter"),
    ("instances.filter_removed", "count", "value", "instances.filter"),
    ("instances.canonicalize_s", "s", "self", "instances.canonicalize"),
    ("instances.validate_s", "s", "self", "instances.validate"),
    ("instances.constructed", "count", "count", "instances.validate"),
    ("mechanism.fair_inner_product_s", "s", "self", "mechanism.fair_inner_product"),
    ("mechanism.calls", "count", "count", "mechanism.fair_inner_product"),
    ("mechanism.star_share", "ratio", "share", "mechanism.fair_inner_product"),
    ("estimator.epsilons_s", "s", "self", "estimator.epsilons"),
    ("estimator.epsilons_calls", "count", "count", "estimator.epsilons"),
    ("estimator.dclef_s", "s", "self", "estimator.dclef"),
    ("estimator.evaluate_s", "s", "self", "estimator.evaluate"),
    ("optimal.brute_force_opt_s", "s", "self", "optimal.brute_force_opt"),
    ("optimal.oracle_calls", "count", "count", "optimal.brute_force_opt"),
    ("optimal.fractional_optimum_s", "s", "self", "optimal.fractional_optimum"),
    ("optimal.kkt_certificate_s", "s", "self", "optimal.kkt_certificate"),
    ("optimal.opt_bounds_check_s", "s", "self", "optimal.opt_bounds_check"),
    ("verify.generate_instance_s", "s", "self", "verify.generate_instance"),
    ("verify.misreport_grid_s", "s", "self", "verify.misreport_grid"),
    ("verify.deviations", "count", "value", "verify.misreport_grid"),
    ("verify.mechanism_per_deviation", "ratio", "per_deviation", None),
    ("verify.sweep_self_s", "s", "self", "verify.sweep"),
)
# Layers the truthfulness sweep exercises; their metrics are also reported
# per half of a sweep-truthful op, suffixed ".float" and ".rational".
TAGGED_LAYERS = ("instances", "mechanism", "estimator", "verify")
BENCH_METRICS = (
    ("bench.op_s", "s"),
    ("bench.op_self_s", "s"),
    ("bench.trace_overhead_s", "s"),
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run prints, with its unit."""
    out = [(name, unit) for name, unit, _, _ in LAYER_METRICS]
    for tag in TAGS[1:]:
        out += [
            (f"{name}.{tag}", unit)
            for name, unit, _, _ in LAYER_METRICS
            if name.split(".")[0] in TAGGED_LAYERS
        ]
    return out + list(BENCH_METRICS)


def _resolve(owner: str):
    module_name, _, inner = owner.partition(":")
    module = sys.modules[module_name]
    if not inner:
        return module
    if module_name == "privauction.cli":
        return module.main.commands[inner]
    return getattr(module, inner)


def _bound(owner, attr: str):
    """The object bound to ``attr``; a class's own dict, not an inherited one."""
    return vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)


def privauction_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "privauction" or name.startswith("privauction."))
    ]


class Tracer:
    """Span recorder plus the rebinding of the traced entry points."""

    def __init__(self):
        self.names: list[str] = [OP_SPAN]
        self._name = array("i")
        self._parent = array("i")
        self._op = array("i")
        self._tag = array("b")
        self._value = array("d")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._op_id = -1
        self._tag_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name_id: int) -> int:
        index = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1])
        self._op.append(self._op_id)
        self._tag.append(self._tag_id)
        self._value.append(0.0)
        self._end.append(0.0)
        self._stack.append(index)
        self._start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self._end[index] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, value_fn):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if value_fn is not None:
                tracer._value[index] = value_fn(result)
            return result

        traced.__perfbench_span__ = name
        return traced

    @contextmanager
    def op(self, op_id: int):
        """Span around one benchmark op; its self time is the op's remainder."""
        self._op_id = op_id
        index = self._open(0)
        try:
            yield
        finally:
            self._close(index)

    @contextmanager
    def tagged(self, tag: str):
        self._tag_id = TAGS.index(tag)
        try:
            yield
        finally:
            self._tag_id = 0

    # -- rebinding ------------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, _bound(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Rebind every target; module functions in every importing module too."""
        for name, owner_path, attr, value_fn in TARGETS:
            owner = _resolve(owner_path)
            original = _bound(owner, attr)
            wrapper = self._wrap(original, name, value_fn)
            self._patch(owner, attr, wrapper)
            if ":" not in owner_path:
                for module in privauction_modules():
                    if module is not owner and getattr(module, attr, None) is original:
                        self._patch(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self._name, dtype=np.intc),
            "parent": np.frombuffer(self._parent, dtype=np.intc),
            "op": np.frombuffer(self._op, dtype=np.intc),
            "tag": np.frombuffer(self._tag, dtype=np.int8),
            "value": np.frombuffer(self._value, dtype=np.float64),
            "start": np.frombuffer(self._start, dtype=np.float64),
            "end": np.frombuffer(self._end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())


def leftover_wrappers() -> list[str]:
    """Names in privauction modules, classes and commands still bound to a wrapper."""
    found = []
    for module in privauction_modules():
        holders = [(module.__name__, vars(module))]
        holders += [
            (f"{module.__name__}.{key}", vars(value))
            for key, value in vars(module).items()
            if isinstance(value, type) and value.__module__ == module.__name__
        ]
        if module.__name__ == "privauction.cli":
            holders += [
                (f"cli.{key}", {"callback": command.callback})
                for key, command in module.main.commands.items()
            ]
        for where, namespace in holders:
            found += [
                f"{where}.{key}"
                for key, value in namespace.items()
                if hasattr(value, "__perfbench_span__")
            ]
    return found


def layer_metrics(arrays: dict, op_count: int, overhead_s: float) -> dict:
    """Per-op per-layer metrics from recorded spans (see LAYER_METRICS)."""
    names = list(arrays["names"])
    name, parent, tag = arrays["name"], arrays["parent"], arrays["tag"].astype(np.intp)
    duration = arrays["end"] - arrays["start"]
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(name))
    self_time = duration - children
    bins = len(names) * len(TAGS)
    key = tag * len(names) + name
    totals = {
        "self": np.bincount(key, weights=self_time, minlength=bins).reshape(len(TAGS), -1),
        "count": np.bincount(key, minlength=bins).reshape(len(TAGS), -1).astype(float),
        "value": np.bincount(key, weights=arrays["value"], minlength=bins).reshape(len(TAGS), -1),
    }

    def total(kind: str, span: str, tags) -> float:
        if span not in names:
            return 0.0
        return float(sum(totals[kind][t, names.index(span)] for t in tags))

    def measure(kind: str, span: str | None, tags) -> float:
        if kind == "share":
            calls = total("count", span, tags)
            return total("value", span, tags) / calls if calls else 0.0
        if kind == "per_deviation":
            # each checked instance runs the mechanism once honestly; every
            # further call replays a deviation whose deviator survived the filter
            deviations = total("value", "verify.misreport_grid", tags)
            honest = total("count", "verify.generate_instance", tags)
            mechanism = total("count", "mechanism.fair_inner_product", tags)
            return (mechanism - honest) / deviations if deviations else 0.0
        return total(kind, span, tags) / op_count

    everything = range(len(TAGS))
    out = {}
    for metric, unit, kind, span in LAYER_METRICS:
        out[metric] = (measure(kind, span, everything), unit)
    for tag_index, tag in enumerate(TAGS[1:], start=1):
        for metric, unit, kind, span in LAYER_METRICS:
            if metric.split(".")[0] in TAGGED_LAYERS:
                out[f"{metric}.{tag}"] = (measure(kind, span, [tag_index]), unit)
    op_mask = name == 0
    out["bench.op_s"] = (float(duration[op_mask].sum()) / op_count, "s")
    out["bench.op_self_s"] = (float(self_time[op_mask].sum()) / op_count, "s")
    out["bench.trace_overhead_s"] = (overhead_s, "s")
    return out
