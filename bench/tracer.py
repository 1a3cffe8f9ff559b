"""Span tracing around the calls into each supernorms layer.

The traced run wraps the public functions listed in ``LAYERS`` (and the two
numpy kernels the optimizer calls as ``np.linalg.svd`` / ``np.linalg.eigh``)
from outside the library: every module of the package that binds one of
those functions gets the wrapper in its place, so calls between modules are
seen as well as calls from the benchmark.  Spans are kept in flat in-memory
columns while the run lasts and written out once at the end.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from array import array

import numpy as np

# span name -> (module, public functions whose calls it records)
LAYERS = {
    "cli.main": ("supernorms.cli", ("main",)),
    "serialize.load_channel": ("supernorms.serialize", ("load_channel",)),
    "optimize.norm": ("supernorms.optimize", ("norm_q_to_p", "cp_norm")),
    "oracle": ("supernorms.optimize", ("brute_force_oracle",)),
    "superop.tensor_identity": ("supernorms.superop", ("tensor_identity",)),
    "superop.other": (
        "supernorms.superop",
        ("apply", "adjoint_apply", "difference", "left_cp_map", "right_cp_map", "remix"),
    ),
    "channels.random": ("supernorms.channels", ("random_superop", "random_cp_channel")),
    "channels.build_example": ("supernorms.channels", ("build_example",)),
    # the public functions the exact verification claims call
    "schatten": (
        "supernorms.schatten",
        ("schatten_norm", "duality_witness", "hoelder_gap", "block_norm_bounds"),
    ),
    "verify": ("supernorms.verify", ("verify",)),
}
KERNELS = {"kernel.svd": "svd", "kernel.eigh": "eigh"}

# oracle grid angles per (q kind, hermitian): the grid has R**angles points
_ORACLE_ANGLES = {("one", True): 2, ("one", False): 4, ("inf", True): 2, ("inf", False): 3,
                  ("finite", True): 3, ("finite", False): 7}


def oracle_grid_points(phi, query, resolution) -> int:
    """Nominal grid size of one ``brute_force_oracle`` call."""
    if phi.dim_in == 1:
        return 1
    kind = "one" if query.q == 1.0 else "inf" if math.isinf(query.q) else "finite"
    return int(resolution) ** _ORACLE_ANGLES[(kind, bool(query.hermitian_restricted))]


def _kernel_measure(args, kwargs, result):
    a = np.asarray(args[0] if args else kwargs["a"])
    return math.prod(a.shape[:-2]), a.nbytes


def _oracle_measure(args, kwargs, result):
    return oracle_grid_points(*args[:3]), 0


def _verify_measure(args, kwargs, result):
    return result.trials, 0


_MEASURES = {
    "kernel.svd": _kernel_measure,
    "kernel.eigh": _kernel_measure,
    "oracle": _oracle_measure,
    "verify": _verify_measure,
}


class Tracer:
    """Records one span per wrapped call made while an op is open.

    Columns: name id, start, end, parent span index (-1 at op level), op id,
    and two per-span amounts (kernel: matrices and input bytes; oracle: grid
    points; verify: trials checked).
    """

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.amount = array("q")
        self.amount2 = array("q")
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, span_name: str, fn):
        if span_name not in self.names:
            self.names.append(span_name)
        nid = self.names.index(span_name)
        measure = _MEASURES.get(span_name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op_id < 0:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.op_id)
            self.amount.append(0)
            self.amount2.append(0)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if measure is not None:
                self.amount[idx], self.amount2[idx] = measure(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Swap every binding of a traced function for its wrapper."""
        wrappers = {}
        for span_name, (module_name, funcs) in LAYERS.items():
            module = importlib.import_module(module_name)
            for f in funcs:
                original = getattr(module, f)
                wrappers[id(original)] = (original, self._wrap(span_name, original))
        package = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "supernorms" or n.startswith("supernorms."))]
        for module in package:
            for key, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, key, value))
                    setattr(module, key, hit[1])
        for span_name, attr in KERNELS.items():
            original = getattr(np.linalg, attr)
            self._patched.append((np.linalg, attr, original))
            setattr(np.linalg, attr, self._wrap(span_name, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            amount=np.frombuffer(self.amount, dtype=np.int64),
            amount2=np.frombuffer(self.amount2, dtype=np.int64),
        )

    def layer_metrics(self, cycles: int) -> dict[str, float]:
        """Per-layer metrics per op cycle (counts are exact for identical cycles)."""
        names = self.names
        n = len(self.start)
        nid = np.frombuffer(self.name, dtype=np.int32)[:n]
        parent = np.frombuffer(self.parent, dtype=np.int32)[:n]
        dur = np.frombuffer(self.end, dtype=np.float64)[:n] - np.frombuffer(self.start, dtype=np.float64)[:n]
        amount = np.frombuffer(self.amount, dtype=np.int64)[:n]
        amount2 = np.frombuffer(self.amount2, dtype=np.int64)[:n]
        # bitmask of span names among each span's ancestors; parents precede children
        bit = [1 << i for i in range(len(names))]
        anc = [0] * n
        nid_list = nid.tolist()
        for i, par in enumerate(parent.tolist()):
            if par >= 0:
                anc[i] = anc[par] | bit[nid_list[par]]
        anc_arr = np.array(anc, dtype=np.int64)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)

        index = {span_name: i for i, span_name in enumerate(names)}

        def sel(span_name):
            return nid == index[span_name]

        def inside(span_name):
            return (anc_arr & bit[index[span_name]]) != 0

        def outer(span_name):
            # spans not nested inside another span of the same name
            return sel(span_name) & ~inside(span_name)

        c = float(cycles)
        m: dict[str, float] = {}

        def calls(s):
            return int(sel(s).sum()) / c

        def busy(s):
            return float(dur[outer(s)].sum()) / c

        def self_time(s):
            mask = outer(s)
            return float((dur[mask] - child_time[mask]).sum()) / c

        m["cli.main.calls"] = calls("cli.main")
        m["cli.main.self_s"] = self_time("cli.main")
        m["serialize.load_channel.calls"] = calls("serialize.load_channel")
        m["serialize.load_channel.busy_s"] = busy("serialize.load_channel")
        m["optimize.norm.calls"] = calls("optimize.norm")
        norm_busy = busy("optimize.norm")
        m["optimize.norm.busy_s"] = norm_busy
        m["optimize.norm.self_s"] = self_time("optimize.norm")
        m["superop.tensor_identity.calls"] = calls("superop.tensor_identity")
        m["superop.tensor_identity.busy_s"] = busy("superop.tensor_identity")
        for kernel in KERNELS:
            mask = sel(kernel)
            m[f"{kernel}.calls"] = calls(kernel)
            m[f"{kernel}.matrices"] = int(amount[mask].sum()) / c
            m[f"{kernel}.input_bytes"] = int(amount2[mask].sum()) / c
            m[f"{kernel}.busy_s"] = busy(kernel)
            in_norm = float(dur[mask & inside("optimize.norm")].sum()) / c
            m[f"{kernel}.share"] = in_norm / norm_busy if norm_busy > 0 else 0.0
        m["oracle.calls"] = calls("oracle")
        m["oracle.grid_points"] = int(amount[sel("oracle")].sum()) / c
        m["oracle.busy_s"] = busy("oracle")
        m["oracle.grid_points_per_s"] = (
            m["oracle.grid_points"] / m["oracle.busy_s"] if m["oracle.busy_s"] > 0 else 0.0
        )
        m["verify.calls"] = calls("verify")
        m["verify.trials"] = int(amount[sel("verify")].sum()) / c
        m["verify.busy_s"] = busy("verify")
        m["verify.self_s"] = self_time("verify")
        m["channels.random.calls"] = calls("channels.random")
        m["channels.random.busy_s"] = busy("channels.random")
        m["schatten.calls"] = calls("schatten")
        m["schatten.busy_s"] = busy("schatten")
        m["trace.spans"] = n / c
        return m
