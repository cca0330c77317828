"""Spans around the public entry points of every hullscope layer, from outside.

``Tracer.install()`` rebinds each traced function, in every ``hullscope``
module namespace that binds it by name, to a wrapper that records a span
(name, start, end, parent span, query id) plus whatever work counters the
function's result carries. ``minimize`` and ``refine_minimum`` also wrap the
convex function they are handed in an evaluation proxy, so expression-tree
time is measured without touching the library's evaluator code. Spans stay
in memory; ``layer_metrics`` and ``reconcile`` read them after the run and
the caller writes them out at the end.

A layer's self time is its span minus the spans (and proxied evaluations)
it directly contains.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

from workloads import BenchError

_perf = time.perf_counter


class Span:
    __slots__ = ("name", "query", "parent", "start", "end", "evals", "eval_s", "info")

    def __init__(self, name: str, query: int, parent: int):
        self.name = name
        self.query = query
        self.parent = parent
        self.start = self.end = 0.0
        self.evals = 0
        self.eval_s = 0.0
        self.info = None

    @property
    def dur(self) -> float:
        return self.end - self.start

    def as_json(self) -> list:
        return [self.name, self.query, self.parent, self.start, self.end,
                self.evals, self.eval_s, self.info]


class _EvalProxy:
    """Stands in for a ConvexFn handed to the solver; times every evaluation."""

    __slots__ = ("fn", "dim", "tracer")

    def __init__(self, fn, tracer: "Tracer"):
        self.fn = fn
        self.dim = fn.dim
        self.tracer = tracer

    def eval(self, x):
        t0 = _perf()
        out = self.fn.eval(x)
        dt = _perf() - t0
        span = self.tracer.spans[self.tracer.stack[-1]]
        span.evals += 1
        span.eval_s += dt
        return out


def _minimize_info(args, kwargs, res) -> dict:
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
    rule = getattr(cfg, "step_rule", None)
    target = getattr(rule, "target", None)
    hit = None if target is None else bool(res.f_best <= target + cfg.tol)
    return {"iters": res.iters, "converged": bool(res.converged), "hit": hit}


def _iters_info(args, kwargs, res) -> dict:
    return {"iters": res.iters, "converged": bool(res.converged)}


def _verdict_info(args, kwargs, res) -> dict:
    return {"iters": res.iters, "verdict": res.verdict.value}


def _dykstra_info(args, kwargs, res) -> dict:
    return {"sweeps": res.sweeps, "converged": bool(res.converged)}


def _farthest_info(args, kwargs, res) -> dict:
    return {"steps": res.bisection_steps, "inner": res.total_inner_iters}


# (defining module, function, proxy the convex function argument, info extractor)
TRACED = (
    ("hullscope.minimize", "minimize", True, _minimize_info),
    ("hullscope.minimize", "refine_minimum", True, _iters_info),
    ("hullscope.feasibility", "check_feasibility", False, _verdict_info),
    ("hullscope.inclusion", "check_inclusion", False, _verdict_info),
    ("hullscope.inclusion", "build_G", False, None),
    ("hullscope.inclusion", "dykstra_project_full", False, _dykstra_info),
    ("hullscope.farthest", "solve_farthest", False, _farthest_info),
    ("hullscope.application", "bound_max_distance", False, None),
    ("hullscope.application", "extract_boundary_point", False, None),
    ("hullscope.application", "project_region", False, None),
    ("hullscope.problemfile", "load_problem", False, None),
    ("hullscope.cli", "main", False, None),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.query = -1
        self.bindings: Counter = Counter()
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn, proxy: bool, info):
        tracer = self

        def wrapper(*args, **kwargs):
            if proxy and args and not isinstance(args[0], _EvalProxy):
                args = (_EvalProxy(args[0], tracer),) + args[1:]
            span = Span(name, tracer.query, tracer.stack[-1] if tracer.stack else -1)
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = _perf()
                tracer.stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self) -> None:
        """Rebind every traced function wherever a hullscope module binds it."""
        wrappers = {}
        for modname, fname, proxy, info in TRACED:
            fn = getattr(importlib.import_module(modname), fname)
            wrappers[id(fn)] = (fn, self._wrap(fname, fn, proxy, info))
        mods = [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == "hullscope" or k.startswith("hullscope."))]
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, val))
                    self.bindings[val.__name__] += 1
        missing = [f for _, f, _, _ in TRACED if self.bindings[f] == 0]
        if missing:
            raise BenchError(f"no binding found for traced functions {missing}")

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()


# ------------------------------------------------------------------ analysis

def _children(spans: list[Span]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            kids[s.parent].append(i)
    return kids


def _minimize_iters_below(spans, kids, i: int, skip: str | None = None) -> int:
    total = 0
    for c in kids[i]:
        s = spans[c]
        if s.name == skip:
            continue
        if s.name == "minimize":
            total += s.info["iters"]
        total += _minimize_iters_below(spans, kids, c, skip)
    return total


def reconcile(spans: list[Span]) -> int:
    """Check span counters against each report; a mismatch means a missed wrapper.

    * ``refine_minimum``: its minimize children account for all its iterations.
    * ``check_feasibility``: every minimize iteration below it is in ``iters``.
    * ``check_inclusion``: the minimize iterations below it, outside the
      witness search, equal ``iters``, and all of them run in its one
      ``refine_minimum`` child.
    * ``solve_farthest``: likewise equal ``total_inner_iters``, and its
      ``refine_minimum`` children number ``bisection_steps``.

    Returns the number of spans checked.
    """
    kids = _children(spans)
    checked = 0
    for i, s in enumerate(spans):
        if s.info is None:
            continue
        refines = [spans[c] for c in kids[i] if spans[c].name == "refine_minimum"]
        if s.name == "refine_minimum":
            got, want = _minimize_iters_below(spans, kids, i), s.info["iters"]
        elif s.name == "check_feasibility":
            got, want = _minimize_iters_below(spans, kids, i), s.info["iters"]
        elif s.name == "check_inclusion":
            got, want = _minimize_iters_below(spans, kids, i, "check_feasibility"), s.info["iters"]
            if len(refines) != 1 or refines[0].info["iters"] != want:
                raise BenchError(f"span {i} check_inclusion (query {s.query}): "
                                 f"{len(refines)} refine_minimum children for {want} iterations")
        elif s.name == "solve_farthest":
            got, want = _minimize_iters_below(spans, kids, i, "check_feasibility"), s.info["inner"]
            if len(refines) != s.info["steps"]:
                raise BenchError(f"span {i} solve_farthest: {len(refines)} refine_minimum children, "
                                 f"report says {s.info['steps']} bisection steps")
        else:
            continue
        if got != want:
            raise BenchError(f"span {i} {s.name} (query {s.query}): {got} minimize iterations "
                             f"in spans, report says {want}")
        checked += 1
    return checked


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[Span], n_queries: int) -> dict[str, tuple[float, str]]:
    """Per-layer work, busy time and useful-outcome ratios of one traced pass."""
    kids = _children(spans)
    by: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by.setdefault(s.name, []).append(i)

    def sel(name, parent=None):
        return [spans[i] for i in by.get(name, [])
                if parent is None or (spans[i].parent >= 0 and spans[spans[i].parent].name == parent)]

    def total(ss):
        return sum(s.dur for s in ss)

    def self_time(i):
        s = spans[i]
        return s.dur - s.eval_s - sum(spans[c].dur for c in kids[i])

    mins = sel("minimize")
    refines = sel("refine_minimum")
    probes = sel("minimize", "refine_minimum")
    polyak = [s for s in probes if s.info["hit"] is not None]
    feas = sel("check_feasibility")
    incl = sel("check_inclusion")
    dyk = sel("dykstra_project_full")
    far = sel("solve_farthest")
    app = by.get("bound_max_distance", [])
    evals = sum(s.evals for s in spans)
    eval_s = sum(s.eval_s for s in spans)
    iters = sum(s.info["iters"] for s in mins)
    min_self = sum(s.dur - s.eval_s for s in mins)
    steps = sum(s.info["steps"] for s in far)
    far_s = total(far)
    cli = by.get("main", [])

    m = {
        "convexfn.evals": (evals, "count"),
        "convexfn.eval_s": (eval_s, "s"),
        "convexfn.us_per_eval": (1e6 * _ratio(eval_s, evals), "us"),
        "minimize.calls": (len(mins), "count"),
        "minimize.iters": (iters, "count"),
        "minimize.iters_per_query": (_ratio(iters, n_queries), "count"),
        "minimize.self_s": (min_self, "s"),
        "minimize.us_per_iter_self": (1e6 * _ratio(min_self, iters), "us"),
        "minimize.converged_frac": (_ratio(sum(s.info["converged"] for s in mins), len(mins)), "ratio"),
        "minimize.refine_calls": (len(refines), "count"),
        "minimize.refine_s": (total(refines), "s"),
        "minimize.probes": (len(probes), "count"),
        "minimize.probe_hit_frac": (_ratio(sum(s.info["hit"] for s in polyak), len(polyak)), "ratio"),
        "minimize.refine_converged_frac": (
            _ratio(sum(s.info["converged"] for s in refines), len(refines)), "ratio"),
        "feasibility.calls": (len(feas), "count"),
        "feasibility.s": (total(feas), "s"),
        "feasibility.refined_frac": (_ratio(
            sum(any(spans[c].name == "refine_minimum" for c in kids[i]) for i in by.get("check_feasibility", [])),
            len(feas)), "ratio"),
        "inclusion.calls": (len(incl), "count"),
        "inclusion.s": (total(incl), "s"),
        "inclusion.witness_s": (total(sel("check_feasibility", "check_inclusion")), "s"),
        "inclusion.build_G_s": (total(sel("build_G")), "s"),
        "inclusion.dykstra_calls": (len(dyk), "count"),
        "inclusion.dykstra_sweeps": (sum(s.info["sweeps"] for s in dyk), "count"),
        "inclusion.dykstra_s": (total(dyk), "s"),
        "inclusion.dykstra_converged_frac": (_ratio(sum(s.info["converged"] for s in dyk), len(dyk)), "ratio"),
        "farthest.calls": (len(far), "count"),
        "farthest.s": (far_s, "s"),
        "farthest.bisection_steps": (steps, "count"),
        "farthest.s_per_step": (_ratio(far_s, steps), "s"),
        "farthest.inner_iters": (sum(s.info["inner"] for s in far), "count"),
        "application.calls": (len(app), "count"),
        "application.s": (total(spans[i] for i in app), "s"),
        "application.deep_point_s": (total(sel("refine_minimum", "bound_max_distance")), "s"),
        "application.sampling_cover_s": (sum(self_time(i) for i in app), "s"),
        "application.farthest_s": (total(sel("solve_farthest", "bound_max_distance")), "s"),
        "application.ascent_s": (total(sel("extract_boundary_point")), "s"),
        "application.project_region_calls": (len(by.get("project_region", [])), "count"),
        "problemfile.loads": (len(by.get("load_problem", [])), "count"),
        "problemfile.load_s": (total(sel("load_problem")), "s"),
        "cli.calls": (len(cli), "count"),
        "cli.self_s": (sum(self_time(i) for i in cli), "s"),
    }
    return m


def deterministic_counters(spans: list[Span]) -> dict[str, int]:
    """Work counters that must repeat exactly for the same inputs."""
    mins = [s for s in spans if s.name == "minimize"]
    return {
        "minimize.iters": sum(s.info["iters"] for s in mins),
        "minimize.probes": sum(1 for s in mins if s.parent >= 0 and spans[s.parent].name == "refine_minimum"),
        "farthest.bisection_steps": sum(s.info["steps"] for s in spans if s.name == "solve_farthest"),
        "inclusion.dykstra_sweeps": sum(s.info["sweeps"] for s in spans if s.name == "dykstra_project_full"),
    }


# --------------------------------------------------------------- kernel grid

KERNEL_SHAPES = ((2, 2), (10, 8), (50, 32))


def _per_eval_us(fn, points, budget_s: float = 0.03, batches: int = 5) -> float:
    """Median over batches of the mean time of one ``fn.eval``."""
    k = 1
    while True:
        t0 = _perf()
        for _ in range(k):
            for x in points:
                fn.eval(x)
        if _perf() - t0 >= budget_s / 4 or k >= 1 << 16:
            break
        k *= 2
    per = []
    for _ in range(batches):
        t0 = _perf()
        for _ in range(k):
            for x in points:
                fn.eval(x)
        per.append((_perf() - t0) / (k * len(points)))
    per.sort()
    return 1e6 * per[len(per) // 2]


def kernel_grid(hs) -> dict[str, tuple[float, str]]:
    """One evaluation of G and of the merit function over a grid of (n, m).

    The instances are fixed (they do not depend on the workload seed): m
    equal-radius balls around an anchor and an outer center beyond 2R, with
    evaluation points spread over the region the solver visits.
    """
    import numpy as np

    out = {}
    for n, m in KERNEL_SHAPES:
        rng = np.random.default_rng([7, n, m])
        z0 = rng.uniform(-1.0, 1.0, n)
        dirs = rng.standard_normal((m, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        centers = z0 + 0.5 * rng.uniform(0.0, 1.0, (m, 1)) * dirs
        d = rng.standard_normal(n)
        c = z0 + 3.0 * d / np.linalg.norm(d)
        bi = hs.BallIntersection(list(centers), 1.0)
        G = hs.build_G(bi, hs.OuterBall(c, 3.0))
        merit = hs.build_g_tilde(bi.constraint_set())
        points = list(z0 + rng.uniform(-1.0, 1.0, (4, n)))
        out[f"convexfn.G_eval_us.n{n}m{m}"] = (_per_eval_us(G, points), "us")
        out[f"convexfn.merit_eval_us.n{n}m{m}"] = (_per_eval_us(merit, points), "us")
    return out
