"""In-memory span recorder that wraps module attributes of the package.

Each wrapped call appends one span: name, start, end, parent span and the
operation it belongs to. Spans live in flat typed arrays while the run is
going, are written out once at the end, and `Spans` with `layer_metrics`
turns the written file into per-layer counts and self times.

Wrapping replaces the function object everywhere the package binds it (its
own module, modules that imported it by name, the package namespace), so a
call made inside a module through its globals is recorded too.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import time

import numpy as np

MODULES = ("groups", "chamber", "smoothing", "calculus", "verify", "polar",
           "config", "cli")
PACKAGE = "orbitfold"

# private functions that other modules import and call as a layer entry
EXTRA = {"chamber": ("_fold_image",)}
RENAME = {"chamber._fold_image": "chamber.fold_image"}

# name prefixes of the maps that the FD stencils evaluate; a span of one of
# these whose parent is an fd_* span is one map evaluation
MAP_NAMES = ("smoothing.apply_H", "smoothing.apply_G", "smoothing.apply_partial",
             "smoothing.apply_F.", "chamber.fold_image", "polar.model_H")
FD_NAMES = ("calculus.fd_jacobian", "calculus.fd_hessian", "calculus.fd_directional")


class Recorder:
    """Spans as parallel arrays; `op` tags the operation being traced."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.opid = array.array("i")
        self.steps = array.array("i")      # fold steps, 1 when apply_F claimed
        self.op = -1
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, name: str) -> int:
        sid = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.opid.append(self.op)
        self.steps.append(0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, qualname: str, fn):
        rec = self
        name = RENAME.get(qualname, qualname)

        if qualname == "smoothing.apply_F":
            @functools.wraps(fn)
            def wrapper(chain, i, p, *args, **kwargs):
                sid = rec._open(f"{name}.L{i}")
                try:
                    out = fn(chain, i, p, *args, **kwargs)
                finally:
                    rec._close(sid)
                rec.steps[sid] = int(not np.array_equal(out, np.asarray(p, dtype=float)))
                return out
        elif qualname == "smoothing.eval_h":
            @functools.wraps(fn)
            def wrapper(profile, t, order=0, *args, **kwargs):
                sid = rec._open(name + (".order0" if order == 0 else ".jet"))
                try:
                    return fn(profile, t, order, *args, **kwargs)
                finally:
                    rec._close(sid)
        elif qualname == "chamber.fold":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                sid = rec._open(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    rec._close(sid)
                rec.steps[sid] = out.steps
                return out
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                sid = rec._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec._close(sid)
        return wrapper

    def install(self) -> None:
        """Wrap every public function defined in each module, plus EXTRA."""
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for attr, fn in vars(mod).items():
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in EXTRA.get(short, ()):
                    continue
                wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        namespaces = [importlib.import_module(PACKAGE)] + list(mods.values())
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._restore.append((ns, attr, val))
                    setattr(ns, attr, hit[1])

    def uninstall(self) -> None:
        for ns, attr, val in reversed(self._restore):
            setattr(ns, attr, val)
        self._restore.clear()

    def write(self, path: str) -> None:
        """Write every span out; `Spans` reads this file."""
        np.savez(path, names=np.array(self.names, dtype=str),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 op=np.frombuffer(self.opid, dtype=np.int32),
                 steps=np.frombuffer(self.steps, dtype=np.int32))


class Spans:
    """A written span file, with per-name counts, self times and sums."""

    def __init__(self, path: str) -> None:
        with np.load(path) as data:
            self.names = list(data["names"])
            self.name = data["name"]
            dur = data["end"] - data["start"]
            self.parent = data["parent"]
            self.op = data["op"]
            self.steps = data["steps"]
        n = self.name.size
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=dur[has_parent],
                            minlength=n) if n else np.zeros(0)
        self.dur = dur
        self.self_time = dur - child

    def ids(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.name.size, dtype=bool)
        return self.name == self.names.index(name)

    def prefix(self, prefix: str) -> np.ndarray:
        nids = [i for i, nm in enumerate(self.names) if nm.startswith(prefix)]
        return np.isin(self.name, nids)

    def calls(self, name: str) -> int:
        return int(np.count_nonzero(self.ids(name)))

    def self_s(self, mask: np.ndarray) -> float:
        return float(self.self_time[mask].sum())

    def total_s(self, name: str) -> float:
        return float(self.dur[self.ids(name)].sum())

    def child_of(self, child: np.ndarray, parent: np.ndarray) -> int:
        """Spans in `child` whose direct parent is in `parent`."""
        par = self.parent[child]
        return int(np.count_nonzero(parent[par[par >= 0]]))

    def under(self, ancestor: np.ndarray) -> np.ndarray:
        """Spans with some ancestor in `ancestor`, one nesting level per pass."""
        has_parent = self.parent >= 0
        par = self.parent[has_parent]
        inside = np.zeros(self.parent.size, dtype=bool)
        while True:
            nxt = inside.copy()
            nxt[has_parent] = ancestor[par] | inside[par]
            if np.array_equal(nxt, inside):
                return inside
            inside = nxt


def layer_metrics(spans: Spans, check_names: list[str]) -> dict[str, float]:
    """Every per-layer metric the benchmark declares, from one span file."""
    m: dict[str, float] = {}

    def calls_self(name: str) -> None:
        m[f"{name}.calls"] = spans.calls(name)
        m[f"{name}.self_s"] = spans.self_s(spans.ids(name))

    for fn in ("fd_jacobian", "fd_hessian", "fd_directional", "wall_jump_probe",
               "origin_line_probe", "growth_bound_check"):
        calls_self(f"calculus.{fn}")
    fd = np.zeros(spans.name.size, dtype=bool)
    for name in FD_NAMES:
        fd |= spans.ids(name)
    maps = np.zeros(spans.name.size, dtype=bool)
    for name in MAP_NAMES:
        maps |= spans.prefix(name)
    m["calculus.map_evals"] = spans.child_of(maps, fd)

    for fn in ("apply_H", "apply_G", "eval_l", "softmin"):
        calls_self(f"smoothing.{fn}")
    for level in range(3):
        name = f"smoothing.apply_F.L{level}"
        calls_self(name)
        mask = spans.ids(name)
        hits = int(np.count_nonzero(spans.steps[mask]))
        m[f"{name}.claimed_ratio"] = hits / max(1, int(np.count_nonzero(mask)))
    for kind in ("order0", "jet"):
        calls_self(f"smoothing.eval_h.{kind}")
    m["smoothing.validate_tubes.s"] = spans.total_s("smoothing.validate_tubes")

    for fn in ("fold", "fold_image", "classify", "dist_to_face"):
        calls_self(f"chamber.{fn}")
    apply_h = spans.ids("smoothing.apply_H")
    dist = spans.ids("chamber.dist_to_face")
    n_h = int(np.count_nonzero(apply_h))
    m["chamber.dist_to_face.per_apply_H"] = (
        int(np.count_nonzero(dist & spans.under(apply_h))) / n_h if n_h else 0.0)
    folds = spans.ids("chamber.fold")
    m["chamber.fold.steps_mean"] = (
        float(spans.steps[folds].mean()) if folds.any() else 0.0)

    for fn in ("model_H", "jacobi_eigensystem"):
        calls_self(f"polar.{fn}")
    calls_self("groups.essential_split")
    m["groups.preset_group.s"] = spans.total_s("groups.preset_group")

    for check in check_names:
        m[f"verify.{check}.s"] = spans.total_s(f"verify.{check}")
    m["verify.self_s"] = spans.self_s(spans.prefix("verify."))
    m["config.parse_config.s"] = spans.total_s("config.parse_config")
    m["cli.self_s"] = spans.self_s(spans.prefix("cli."))
    m["trace.spans"] = int(spans.name.size)
    return m
