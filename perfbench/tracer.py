"""In-memory span tracer that wraps coordfuse's public functions.

`Tracer.install()` replaces each function named in `TRACED` with a wrapper in
every coordfuse module namespace that binds it, so calls made through
`from coordfuse.x import f` copies are caught too. Each call records one span
(name, start, end, parent span, run id) plus the counts measured at the call
boundary: rows of the batched input and computed work. `uninstall()` puts the
original functions back. Self time is a span's duration minus the time its
direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

MODULES = ("dataset", "layers", "model", "optimizer", "evaluation", "cli")

# function -> (position, keyword, sample ndim) of the argument whose leading
# dimension is `.rows` when it holds a batch; an argument with only the
# sample's number of dimensions is one row. None: every call is one row.
TRACED = {
    "dataset.generate_synthetic": None,
    "dataset.normalize_cube": None,
    "dataset.stratified_split": None,
    "dataset.extract_samples": None,
    "dataset.load_cube": None,
    "dataset.load_labels": None,
    "dataset.save_cube": None,
    "dataset.save_labels": None,
    "layers.conv1d_forward": (1, "x", 1),
    "layers.conv1d_backward": (1, "x", 1),
    "layers.maxpool1d_forward": (0, "x", 2),
    "layers.maxpool1d_backward": (1, "idx", 2),
    "layers.dense_forward": (1, "v", 1),
    "layers.dense_backward": (1, "v", 1),
    "layers.dropout": (2, "v", 1),
    "layers.cross_entropy": (0, "probs", 1),
    "model.forward": (1, "spectral", 1),
    "model.backward": (2, "label", 0),
    "model.predict": (1, "spectral", 1),
    "model.predict_many": (1, "features", 1),
    "model.build": None,
    "model.save_checkpoint": None,
    "model.load_checkpoint": None,
    "optimizer.adam_step": None,
    "optimizer.train": (3, "labels", 0),
    "evaluation.confusion": (0, "preds", 0),
    "evaluation.metrics": None,
    "evaluation.render_map": None,
    "evaluation.dense_energy": None,
    "cli.cmd_run": None,
    "cli.cmd_energy": None,
    "cli.load_config": None,
}

# Functions whose first argument is a layer: their spans are named after the
# model attribute holding that layer, e.g. layers.dense_forward.fc.
LAYER_FUNCTIONS = (
    "layers.conv1d_forward",
    "layers.conv1d_backward",
    "layers.dense_forward",
    "layers.dense_backward",
)
LAYER_ATTRS = ("conv", "fc", "coord1", "coord2", "head")


def _arg(args, kwargs, index, keyword):
    return args[index] if len(args) > index else kwargs[keyword]


def _rows(value, sample_ndim: int) -> int:
    ndim = getattr(value, "ndim", None)
    if ndim is None:
        ndim = np.ndim(value)
    return 1 if ndim <= sample_ndim else len(value)


def _work(name: str, args, kwargs, rows: int) -> float:
    """Computed work of one call: FLOPs, parameter elements or pixel pairs.

    Multiply-adds count as two FLOPs. A backward pass does two products of
    the forward's size: the weight gradient and the input gradient.
    """
    if name.startswith("layers.conv1d_"):
        filters, kernel = args[0].weights.shape
        length = np.shape(_arg(args, kwargs, 1, "x"))[-1] - kernel + 1
        factor = 2 if name.endswith("forward") else 4
        return float(factor * rows * length * kernel * filters)
    if name.startswith("layers.dense_"):
        fan_in, fan_out = args[0].weights.shape
        factor = 2 if name.endswith("forward") else 4
        return float(factor * rows * fan_in * fan_out)
    if name == "optimizer.adam_step":
        return float(sum(p.size for p in _arg(args, kwargs, 0, "params").values()))
    if name == "evaluation.dense_energy":
        return float(np.size(_arg(args, kwargs, 0, "labeling")) ** 2)
    return 0.0


class Tracer:
    """Records spans of the wrapped calls while installed."""

    def __init__(self):
        self.run_id = 0
        self.keys: list[str] = []
        self._key_ids: dict[str, int] = {}
        self._layers: dict[int, tuple[object, str]] = {}
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.key = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("q")
        self.rows = array("q")
        self.work = array("d")

    def _key_id(self, key: str) -> int:
        kid = self._key_ids.get(key)
        if kid is None:
            kid = self._key_ids[key] = len(self.keys)
            self.keys.append(key)
        return kid

    def register_model(self, model) -> None:
        """Name the layers of `model` so layer spans carry their attribute."""
        for attr in LAYER_ATTRS:
            layer = getattr(model, attr, None)
            if layer is not None:
                # Holding the layer keeps its id from being reused.
                self._layers[id(layer)] = (layer, attr)

    def _wrap(self, name: str, fn):
        tracer = self
        rows_spec = TRACED[name]
        base_id = self._key_id(name)
        named_by_layer = name in LAYER_FUNCTIONS
        layer_ids: dict[str, int] = {}
        registers_model = name in ("model.build", "model.load_checkpoint")
        counts_work = named_by_layer or name in (
            "optimizer.adam_step",
            "evaluation.dense_energy",
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            kid = base_id
            if named_by_layer:
                entry = tracer._layers.get(id(args[0]))
                if entry is not None:
                    kid = layer_ids.get(entry[1])
                    if kid is None:
                        kid = layer_ids[entry[1]] = tracer._key_id(f"{name}.{entry[1]}")
            if rows_spec is None:
                rows = 1
            else:
                index, keyword, sample_ndim = rows_spec
                rows = _rows(_arg(args, kwargs, index, keyword), sample_ndim)
            sid = len(tracer.key)
            tracer.key.append(kid)
            tracer.parent.append(tracer._stack[-1])
            tracer.run.append(tracer.run_id)
            tracer.rows.append(rows)
            tracer.work.append(_work(name, args, kwargs, rows) if counts_work else 0.0)
            tracer.end.append(0.0)
            tracer._stack.append(sid)
            tracer.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[sid] = time.perf_counter()
                tracer._stack.pop()
            if registers_model:
                tracer.register_model(result)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every traced function; return the names not found."""
        import coordfuse

        modules = {m: importlib.import_module(f"coordfuse.{m}") for m in MODULES}
        namespaces = [coordfuse, *modules.values()]
        missing = []
        for name in TRACED:
            mod_name, fn_name = name.split(".")
            original = getattr(modules[mod_name], fn_name, None)
            if original is None:
                missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self._patched.append((ns, attr, original))
        return missing

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def nbytes(self) -> int:
        """Memory the span buffers hold."""
        buffers = (self.key, self.start, self.end, self.parent, self.run, self.rows, self.work)
        return sum(len(a) * a.itemsize for a in buffers)

    def summarize(self) -> dict[int, dict[str, dict[str, float]]]:
        """Per run id, per span key: calls, rows, work and self_s."""
        if not self.key:
            return {}
        key = np.frombuffer(self.key, dtype=np.int64)
        start = np.frombuffer(self.start)
        end = np.frombuffer(self.end)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        run = np.frombuffer(self.run, dtype=np.int64)
        rows = np.frombuffer(self.rows, dtype=np.int64)
        work = np.frombuffer(self.work)
        duration = end - start
        child = np.zeros(len(duration))
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        self_s = duration - child
        out: dict[int, dict[str, dict[str, float]]] = {}
        for run_id in np.unique(run):
            sel = run == run_id
            k = key[sel]
            n_keys = len(self.keys)
            calls = np.bincount(k, minlength=n_keys)
            stats = {
                "calls": calls,
                "rows": np.bincount(k, weights=rows[sel], minlength=n_keys),
                "work": np.bincount(k, weights=work[sel], minlength=n_keys),
                "self_s": np.bincount(k, weights=self_s[sel], minlength=n_keys),
            }
            out[int(run_id)] = {
                self.keys[i]: {s: float(v[i]) for s, v in stats.items()}
                for i in range(n_keys)
                if calls[i]
            }
        return out
