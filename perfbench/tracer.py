"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions and methods of the sealkit layers from
outside the program. A wrapper replaces every attribute, in every sealkit
module and class, whose value *is* the original function, so names bound by
``from .x import y`` are traced as well. Spans (name, start, end, parent
span, operation id, bytes returned) are kept in flat arrays in memory and
summarised once the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

# Layers whose public functions are traced. cli, scenarios and escrow run
# only as phases or inside correctness gates; config and util are trivial.
TRACED_LAYERS = ("volume", "tree", "machine", "sealing", "manifest", "verifier", "services")

# Per-layer metric -> the spans it sums, and which aggregates it reports.
FUNCTION_METRICS: tuple[tuple[str, tuple[str, ...], tuple[str, ...]], ...] = (
    ("volume.unlock", ("volume.unlock",), ("calls", "s")),
    ("volume.format_volume", ("volume.format_volume",), ("s",)),
    ("volume.reencrypt", ("volume.reencrypt",), ("s",)),
    ("volume.read_sector", ("volume.read_sector",), ("calls", "s")),
    ("volume.write_sector", ("volume.write_sector",), ("calls", "s")),
    ("volume.serialize_volume", ("volume.serialize_volume",), ("s",)),
    ("volume.deserialize_volume", ("volume.deserialize_volume",), ("s",)),
    ("tree.encode", ("tree.FileTree.encode",), ("calls", "bytes", "s")),
    ("tree.decode", ("tree.FileTree.decode",), ("s",)),
    ("machine.boot", ("machine.Machine.boot",), ("s",)),
    ("machine.write_through", ("machine.Machine.write_file", "machine.Machine.append_text",
                               "machine.Machine.remove_path"), ("calls", "s")),
    ("machine.exec_step.reencrypt_vm", ("machine.exec_step.reencrypt_vm",), ("s",)),
    ("machine.exec_step.hash_tree", ("machine.exec_step.hash_tree",), ("s",)),
    ("machine.exec_step.zip_tree", ("machine.exec_step.zip_tree",), ("s",)),
    ("machine.exec_step.list_files", ("machine.exec_step.list_files",), ("s",)),
    ("machine.exec_step.remove_user", ("machine.exec_step.remove_user",), ("s",)),
    ("machine.full_tree_from_images", ("machine.full_tree_from_images",), ("s",)),
    ("machine.save_images", ("machine.save_images",), ("s",)),
    ("machine.load_images", ("machine.load_images",), ("s",)),
    ("sealing.prepare_trusted_server", ("sealing.prepare_trusted_server",), ("s",)),
    ("sealing.seal_host", ("sealing.seal_host",), ("s",)),
    ("sealing.seal_vm", ("sealing.seal_vm",), ("s",)),
    ("sealing.publish_bundle", ("sealing.publish_bundle",), ("s",)),
    ("manifest.hash_lines", ("manifest.hash_lines",), ("calls", "s")),
    ("manifest.compute_manifest", ("manifest.compute_manifest",), ("s",)),
    ("verifier.verify_seal", ("verifier.verify_seal",), ("s",)),
    ("verifier.parse_sealing_log", ("verifier.parse_sealing_log",), ("s",)),
    ("verifier.extract_evidence", ("verifier.extract_evidence",), ("s",)),
)

# Spans named by the kind of sealing step they execute.
_STEP_DISPATCH = ("machine", "Machine", "exec_step")


def required_spans() -> set[str]:
    """Span names that must record calls on every workload."""
    return {name for _, names, _ in FUNCTION_METRICS for name in names}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.nbytes = array("q")
        self.op_kinds: list[str] = []
        self.active = False
        self._stack: list[int] = []
        self._current_op = -1
        self._rebound: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin_op(self, kind: str) -> None:
        """Spans opened from now on belong to a new operation of this kind."""
        self._current_op = len(self.op_kinds)
        self.op_kinds.append(kind)

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._current_op)
        self.end.append(0.0)
        self.nbytes.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int, nbytes: int) -> None:
        self.end[idx] = perf_counter()
        self.nbytes[idx] = nbytes
        self._stack.pop()

    def _call(self, nid: int, fn, args, kwargs):
        idx = self._open(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(idx, 0)
            raise
        self._close(idx, len(result) if type(result) is bytes else 0)
        return result

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            return tracer._call(nid, fn, args, kwargs)

        return traced

    def _wrap_step_dispatch(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(machine, step, *args, **kwargs):
            if not tracer.active:
                return fn(machine, step, *args, **kwargs)
            nid = tracer._name_id(f"machine.exec_step.{step.kind}")
            return tracer._call(nid, fn, (machine, step, *args), kwargs)

        return traced

    # -- installation ------------------------------------------------------------

    def install(self, package: str = "sealkit") -> None:
        """Wrap every public function of the traced layers at every binding site."""
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == package or name.startswith(package + ".")]
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in TRACED_LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, value in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == mod.__name__:
                    wrappers[id(value)] = (value, self._wrap(value, f"{layer}.{attr}"))
                elif inspect.isclass(value) and value.__module__ == mod.__name__:
                    for mattr, member in vars(value).items():
                        func = getattr(member, "__func__", member)
                        if mattr.startswith("_") or not inspect.isfunction(func):
                            continue
                        if (layer, value.__name__, mattr) == _STEP_DISPATCH:
                            wrapper = self._wrap_step_dispatch(func)
                        else:
                            wrapper = self._wrap(func, f"{layer}.{value.__name__}.{mattr}")
                        wrappers[id(func)] = (func, wrapper)
        for mod in modules:
            self._rebind(mod, wrappers)
            for value in list(vars(mod).values()):
                if inspect.isclass(value) and value.__module__ == mod.__name__:
                    self._rebind(value, wrappers)

    def _rebind(self, owner, wrappers) -> None:
        for attr, value in list(vars(owner).items()):
            if isinstance(value, (classmethod, staticmethod)):
                entry = wrappers.get(id(value.__func__))
                if entry is not None and entry[0] is value.__func__:
                    self._set(owner, attr, value, type(value)(entry[1]))
            elif inspect.isfunction(value):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._set(owner, attr, value, entry[1])

    def _set(self, owner, attr: str, old, new) -> None:
        self._rebound.append((owner, attr, old))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._rebound):
            setattr(owner, attr, old)
        self._rebound.clear()

    # -- summary -----------------------------------------------------------------

    def reset_spans(self) -> None:
        for arr in (self.name, self.start, self.end, self.parent, self.op, self.nbytes):
            del arr[:]
        self.op_kinds.clear()
        self._current_op = -1

    def summary(self) -> "TraceSummary":
        n = len(self.name)
        names = self.names
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls: Counter = Counter()
        total: Counter = Counter()
        nbytes: Counter = Counter()
        layer_calls: Counter = Counter()
        layer_s: Counter = Counter()
        layer_self: Counter = Counter()
        by_op_kind: Counter = Counter()
        for i in range(n):
            name = names[self.name[i]]
            layer = name.split(".", 1)[0]
            p = self.parent[i]
            calls[name] += 1
            nbytes[name] += self.nbytes[i]
            if p < 0 or self.name[p] != self.name[i]:
                total[name] += dur[i]
            layer_calls[layer] += 1
            layer_self[layer] += dur[i] - child[i]
            if p < 0 or names[self.name[p]].split(".", 1)[0] != layer:
                layer_s[layer] += dur[i]
            op = self.op[i]
            if op >= 0:
                by_op_kind[(self.op_kinds[op], name, "calls")] += 1
                by_op_kind[(self.op_kinds[op], name, "bytes")] += self.nbytes[i]
        return TraceSummary(spans=n, calls=calls, total=total, nbytes=nbytes,
                            layer_calls=layer_calls, layer_s=layer_s,
                            layer_self=layer_self, by_op_kind=by_op_kind)


@dataclass
class TraceSummary:
    spans: int
    calls: Counter  # per span name
    total: Counter  # per span name: seconds, not counting nested same-name spans twice
    nbytes: Counter  # per span name: bytes returned
    layer_calls: Counter
    layer_s: Counter  # per layer: seconds in its outermost spans
    layer_self: Counter  # per layer: seconds not covered by child spans
    by_op_kind: Counter  # (operation kind, span name, "calls" | "bytes")

    def counts(self) -> dict[str, int]:
        """Call and byte counts per span name, for the repeatability check."""
        out = {f"{name}.calls": c for name, c in self.calls.items()}
        out.update({f"{name}.bytes": b for name, b in self.nbytes.items() if b})
        return out

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for metric, names, fields in FUNCTION_METRICS:
            for field in fields:
                if field == "calls":
                    out[f"{metric}.calls"] = sum(self.calls[n] for n in names)
                elif field == "bytes":
                    out[f"{metric}.bytes"] = sum(self.nbytes[n] for n in names)
                else:
                    out[f"{metric}.s"] = sum(self.total[n] for n in names)
        for layer in TRACED_LAYERS:
            out[f"{layer}.self_s"] = self.layer_self[layer]
        out["services.calls"] = self.layer_calls["services"]
        out["services.s"] = self.layer_s["services"]
        return out

    def op_kind_count(self, kind: str, name: str, field: str) -> int:
        return self.by_op_kind[(kind, name, field)]
