"""Per-module tracing of tfm_lab, measured from outside the package.

`Tracer.install` replaces every public function of the nine tfm_lab modules
with a timing wrapper at every module that binds it by name (so both
`mechanisms.recommended_block` and `auditors.recommended_block` are caught),
plus one private probe, `auditors._finalize_witnesses`, the only place where
found and emitted witness counts are both visible.  `Tracer.uninstall` puts
every original back and verifies that it did.

Calls reach millions, so nothing is logged per call: each wrapper adds its
call count, busy time (outermost call only, so recursion and nested members
of a group are not counted twice) and self time (busy minus the time of traced
children) to three aggregates: the function, its group if it has one, and
its module.  Sums of module self times therefore add up to the traced wall
time minus whatever runs outside tfm_lab.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import weakref

MODULES = (
    "cli",
    "scenario_io",
    "generator",
    "auditors",
    "mechanisms",
    "solver",
    "core",
    "counterexamples",
    "reports",
)

GROUPS = {
    "auditors.audit": (
        "audit_dsic",
        "audit_bpic",
        "audit_approx_dsic_bound",
        "audit_welfare_ratio",
        "check_beta_commensurate",
    ),
    "counterexamples.construct": (
        "construct_zero_bid",
        "construct_zero_bid_single_minded",
        "construct_welfare_gap",
    ),
    "scenario_io.load": ("load_scenario_file", "parse_scenario_text"),
    "scenario_io.serialize": ("serialize_scenario", "write_scenario_file"),
    "scenario_io.digest": ("scenario_digest",),
    "reports.render": ("render_audit_report", "render_welfare_report"),
    "reports.parse": ("parse_audit_report", "parse_welfare_report"),
}

PROBES = (("auditors", "_finalize_witnesses"),)

COUNTERS = (
    "cells",
    "witnesses_found",
    "witnesses_emitted",
    "blocks_scored",
    "enum_misses",
    "render_bytes",
)


class Stat:
    __slots__ = ("calls", "errors", "busy_s", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.errors = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.depth = 0

    def as_dict(self):
        return {
            "calls": self.calls,
            "errors": self.errors,
            "busy_s": self.busy_s,
            "self_s": self.self_s,
        }


class Tracer:
    """In-memory aggregates of calls, busy and self time per function,
    group and module, plus the counters named in COUNTERS."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.site_calls: dict[str, int] = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[list] = []
        self._enum_seen: dict[int, set] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def _modules(self):
        pkg = importlib.import_module("tfm_lab")
        mods = {name: importlib.import_module(f"tfm_lab.{name}") for name in MODULES}
        return pkg, mods

    def _targets(self, mods):
        """(home module, name, function) for every traced function."""
        out = []
        for home, mod in mods.items():
            for name, obj in vars(mod).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    out.append((home, name, obj))
        for home, name in PROBES:
            out.append((home, name, getattr(mods[home], name)))
        return out

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        pkg, mods = self._modules()
        group_of = {
            f"{key.split('.')[0]}.{fn}": key for key, fns in GROUPS.items() for fn in fns
        }
        hooks = self._hooks()
        bindings = [("tfm_lab", pkg)] + list(mods.items())
        for home, name, fn in self._targets(mods):
            key = f"{home}.{name}"
            chain = [self._stat(key)]
            if key in group_of:
                chain.append(self._stat(group_of[key]))
            chain.append(self._stat(home))
            for site, mod in bindings:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        wrapper = self._wrap(fn, key, tuple(chain), f"{site}>{key}", hooks.get(key))
                        self._saved.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        saved, self._saved = self._saved, []
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)
        for mod, attr, fn in saved:
            if getattr(mod, attr) is not fn:
                raise RuntimeError(f"{mod.__name__}.{attr} was not restored")

    def _stat(self, key):
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = Stat()
        return stat

    def _wrap(self, fn, key, chain, site, hook):
        stack = self._stack
        clock = time.perf_counter
        site_calls = self.site_calls
        site_calls.setdefault(site, 0)

        def wrapper(*args, **kwargs):
            frame = [0.0, key]
            stack.append(frame)
            for stat in chain:
                stat.depth += 1
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                own = dt - frame[0]
                for stat in chain:
                    stat.calls += 1
                    stat.self_s += own
                    stat.depth -= 1
                    if stat.depth == 0:
                        stat.busy_s += dt
                    if not ok:
                        stat.errors += 1
                site_calls[site] += 1
            if hook is not None:
                hook(result, args, kwargs, stack[-1][1] if stack else None)
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- counters observed from arguments and return values ------------

    def _hooks(self):
        counters = self.counters
        seen = self._enum_seen

        def audit_cells(result, args, kwargs, parent):
            counters["cells"] += result.cells_checked

        def welfare_cells(result, args, kwargs, parent):
            counters["cells"] += len(result.entries)

        def beta_cell(result, args, kwargs, parent):
            counters["cells"] += 1

        def witnesses(result, args, kwargs, parent):
            counters["witnesses_found"] += len(args[0])
            counters["witnesses_emitted"] += len(result)

        def rendered(result, args, kwargs, parent):
            counters["render_bytes"] += len(result.encode())

        def enumerated(result, args, kwargs, parent):
            # A miss is a (scenario, eligibility) pair not seen before while
            # that scenario object is alive.
            scenario = args[0]
            keys = seen.get(id(scenario))
            if keys is None:
                keys = seen[id(scenario)] = set()
                weakref.finalize(scenario, seen.pop, id(scenario), None)
            eligible = kwargs.get("eligible")
            if eligible not in keys:
                keys.add(eligible)
                counters["enum_misses"] += 1
            if parent == "solver.bps_argmax_detail":
                counters["blocks_scored"] += len(result)

        return {
            "auditors.audit_dsic": audit_cells,
            "auditors.audit_bpic": audit_cells,
            "auditors.audit_approx_dsic_bound": audit_cells,
            "auditors.audit_welfare_ratio": welfare_cells,
            "auditors.check_beta_commensurate": beta_cell,
            "auditors._finalize_witnesses": witnesses,
            "reports.render_audit_report": rendered,
            "reports.render_welfare_report": rendered,
            "solver.enumerate_blocks": enumerated,
        }

    # -- read-out -----------------------------------------------------

    def snapshot(self) -> dict:
        """Plain copy of every aggregate, for dumping and for differences."""
        return {
            "stats": {k: s.as_dict() for k, s in sorted(self.stats.items())},
            "site_calls": dict(sorted(self.site_calls.items())),
            "counters": dict(self.counters),
        }


def difference(after: dict, before: dict) -> dict:
    """Aggregates accumulated between two snapshots."""
    stats = {}
    for key, s in after["stats"].items():
        b = before["stats"].get(key, {})
        stats[key] = {f: v - b.get(f, 0) for f, v in s.items()}
    sites = {k: v - before["site_calls"].get(k, 0) for k, v in after["site_calls"].items()}
    counters = {k: v - before["counters"].get(k, 0) for k, v in after["counters"].items()}
    return {"stats": stats, "site_calls": sites, "counters": counters}
