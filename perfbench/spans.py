"""Span tracing around the package's public functions.

Spans are recorded by wrappers that the benchmark installs over the
package's module-level bindings; the package itself is not changed.
Spans stay in memory and are summarized when the run ends.  This module
imports only `time` and `functools`, so the traced CLI child can load it
without adding to what the package import measures.
"""

from __future__ import annotations

import time
from functools import wraps

# Layers that get calls / busy_ms / p50_us, named <module>.<function>.
LAYERS = (
    "cli.parse_link",
    "link_model.normalize",
    "alexander.delta",
    "alexander.genus",
    "alexander.determinant",
    "alexander.cyclotomic_divides",
    "classify.classification_report",
    "orbifold.b_bar",
    "orbifold.chi",
    "orbifold.finite_group",
    "cover.canonical_star_status",
    "cover.general_psi_lo",
)
CLI_COMMANDS = ("classify", "cover", "table", "rejected")
TABLES = ("ade-2fold", "spherical", "euclidean", "higher-finite", "canonical-status")
IMPORT_MODULES = (
    "seifertlinks", "alexander", "classify", "cli", "cover", "errors",
    "laurent", "link_model", "orbifold", "tables",
)


def targets(modules):
    """Span name -> (owner, attribute, name_from_arg) for every layer whose
    module is loaded.  `modules` maps short module name to module."""
    out = {}
    for layer in LAYERS:
        module_name, attribute = layer.split(".")
        if module_name in modules:
            owner = modules[module_name]
            if layer == "orbifold.chi":
                owner, attribute = owner.ConeOrbifold, "chi"
            out[layer] = (owner, attribute, False)
    if "tables" in modules:
        out["tables.build_table"] = (modules["tables"], "build_table", True)
    return out


def package_modules(sys_modules):
    """Short name -> module for every loaded module of the package."""
    out = {}
    for name, module in list(sys_modules.items()):
        if name == "seifertlinks":
            out[name] = module
        elif name.startswith("seifertlinks."):
            out[name.split(".", 1)[1]] = module
    return out


class Tracer:
    """In-memory spans: [name, start_ns, end_ns, parent index].

    Spans nest through a stack, so a wrapped function called from inside
    another wrapped function records it as parent."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append(len(self.spans) - 1)

    def end(self, name=None):
        """Close the innermost span; `name` renames it (used once the
        outcome of a CLI call is known)."""
        index = self._stack.pop()
        self.spans[index][2] = time.perf_counter_ns()
        if name is not None:
            self.spans[index][0] = name

    def wrap(self, name, fn, name_from_arg=False):
        """`fn` wrapped in a span.  With `name_from_arg` the first
        argument is appended to the span name (one span name per table)."""

        @wraps(fn)
        def traced(*args, **kwargs):
            self.begin(f"{name}.{args[0]}" if name_from_arg else name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return traced

    def patch(self, modules):
        """Wrap every layer function wherever a module binds it.  The
        package imports functions by name, so replacing the attribute on
        the defining module alone would miss calls between modules.
        Properties are wrapped on their class."""
        everything = list(modules.values())
        for name, (owner, attribute, name_from_arg) in targets(modules).items():
            original = vars(owner)[attribute]
            if isinstance(original, property):
                self._patches.append((owner, attribute, original))
                setattr(owner, attribute, property(self.wrap(name, original.fget)))
                continue
            replacement = self.wrap(name, original, name_from_arg)
            for module in everything:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, replacement)

    def unpatch(self):
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def summary(self):
        return summarize_spans(self.spans)


def summarize_spans(spans):
    """Per span name: [calls, self_ns, [inclusive durations in ns]].

    A span's self time is its duration minus the durations of its direct
    children; with one thread, children never overlap each other."""
    child_ns = [0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        entry = out.setdefault(name, [0, 0, []])
        entry[0] += 1
        entry[1] += (end - start) - child_ns[index]
        entry[2].append(end - start)
    return out


def merge_summaries(summaries):
    merged = {}
    for summary in summaries:
        for name, (calls, self_ns, durations) in summary.items():
            entry = merged.setdefault(name, [0, 0, []])
            entry[0] += calls
            entry[1] += self_ns
            entry[2].extend(durations)
    return merged


def parse_importtime(stderr_text):
    """{module: self_us} from `python -X importtime` lines; other stderr
    lines are ignored."""
    out = {}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue  # the header line
        out[parts[2].strip()] = int(parts[0])
    return out
