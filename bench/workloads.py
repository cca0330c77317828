"""Seeded inputs, exact ground truth and query closures for the three workloads.

Generation is split in two so that ``setup_s`` measures only what a user of
the library pays for:

* ``make_specs(workload, seed, rounds)`` draws plain numpy inputs and their
  expected answers (ground truth). It never touches ``hullscope`` and is
  kept out of both the set-up time and the timed loop.
* ``build_query(spec, hs, problems)`` turns a spec into library objects and
  a zero-argument query closure. This is the set-up work that is timed.

Every workload is a list of *rounds*; a round holds one query of each class
the workload mixes, so any whole number of rounds has the same composition.

Why the seed only reflects the geometry: at a fixed shape the iteration
count of one query varies 3-6x between random instances (measured
5.6k-35k iterations for n=16, m=8 inclusion), and a run holds only a
handful of multi-second queries, so a run whose geometry came from the seed
would measure the draw instead of the code. The base instances are
therefore fixed (fixed generator seeds, drawn the way the acceptance suite
draws them): planar-stream draws a new one for every query, and wide has
one per query class, which each round queries again.
``--seed`` reflects every query in a random set of coordinate planes (see
``_Reflection``) and shuffles the queries within each round. Input
coordinates change with the seed; the solver work does not.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Rounds per run at --seconds 40, scaled in proportion for other lengths.
# A run lasts 25-55 s at 40 on one core of a 2-vCPU Intel Xeon VM whose
# shared host changes its speed by up to 2x from minute to minute; the
# counts keep ten runs of each workload, with their set-up, well inside the
# time allowed for all runs. They are fixed so that the parent and the
# change measure the same queries at the same percentile ranks, and chosen
# so that the median and tail ranks fall among queries of similar cost
# rather than on a gap between two: planar-stream 150 queries, tail p93.3;
# wide 16 queries (below 20 the tail is the median); fixtures-cli 55,
# tail p81.8 (see CLI_COMMANDS).
ROUNDS_AT_40S = {
    "planar-stream": 50,
    "wide": 2,
    "fixtures-cli": 5,
}

# Instances whose verdict could flip within this margin are dropped before
# timing, as the acceptance suite does (radius units for the planar
# feasibility mix, distance units for the planar inclusion mix).
FEAS_MARGIN = 1e-3
INCL_MARGIN = 1e-3
INCL_FACTORS = (0.75, 0.9, 0.97, 1.03, 1.1, 1.25)

_BASE_SEED = 2_007_00912


class BenchError(RuntimeError):
    """The benchmark itself is inconsistent (not a wrong answer of the program)."""


@dataclass
class Spec:
    """One query's inputs and expected answer, as plain data."""

    kind: str                # "feas", "incl" or "cli"
    label: str               # query class, e.g. "incl n=10 m=8 included"
    data: dict
    expect: object           # verdict value, or exit code for "cli"


@dataclass
class Specs:
    rounds: list[list[Spec]]
    dropped: int = 0

    def flat(self) -> list[Spec]:
        return [s for r in self.rounds for s in r]


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(ROUNDS_AT_40S[workload] * seconds / 40.0))


# ------------------------------------------------------------------ reflections

def _unit(rng, n: int) -> np.ndarray:
    d = rng.standard_normal(n)
    return d / np.linalg.norm(d)


class _Reflection:
    """x -> s * x for a random sign vector s: a reflection in some coordinate planes.

    Negation is exact in floating point and commutes with every rounding the
    solver does, so a reflected instance costs bit-identical solver work.
    Rotations, translations, axis swaps and reordering the balls all change
    rounding (a fused multiply-add is not symmetric in its operands), and
    then the iteration count of a planar infeasible instance can jump
    between 30 and 14,000.
    """

    def __init__(self, rng, n: int):
        self.s = rng.choice([-1.0, 1.0], n)

    def __call__(self, X) -> np.ndarray:
        return np.asarray(X, dtype=np.float64) * self.s


# ------------------------------------------------------------ planar ground truth

def circle_intersections(c1, r1, c2, r2) -> list[np.ndarray]:
    """Intersection points of two circles (empty, one or two points)."""
    d = float(np.linalg.norm(c2 - c1))
    if d == 0.0 or d > r1 + r2 or d < abs(r1 - r2):
        return []
    a = (r1 * r1 - r2 * r2 + d * d) / (2.0 * d)
    h = math.sqrt(max(r1 * r1 - a * a, 0.0))
    u = (c2 - c1) / d
    mid = c1 + a * u
    perp = np.array([-u[1], u[0]])
    return [mid + h * perp, mid - h * perp]


def _in_all(p, centers, radii, slack: float) -> bool:
    return all(float(np.linalg.norm(p - c)) <= r + slack for c, r in zip(centers, radii))


def disks_intersect(centers, radii, slack: float = 1e-12) -> bool:
    """Exact nonemptiness of an intersection of closed disks.

    A nonempty intersection is either bounded by arcs meeting at vertices,
    which are pairwise circle intersection points, or it is a whole disk,
    whose center then lies in every disk. So the disk centers and the
    pairwise intersection points are the only candidate witnesses.
    """
    m = len(centers)
    cands = [np.asarray(c) for c in centers]
    for i in range(m):
        for j in range(i + 1, m):
            cands.extend(circle_intersections(centers[i], radii[i], centers[j], radii[j]))
    return any(_in_all(p, centers, radii, slack) for p in cands)


def farthest_distance(centers, R: float, c) -> float:
    """Exact max of ||x - c|| over an intersection of equal-radius disks.

    The maximum of a convex function sits at an extreme point: a vertex
    (pairwise circle intersection point) or, inside an arc of circle k, the
    point c_k + R (c_k - c) / ||c_k - c|| farthest from c on that circle.
    """
    m = len(centers)
    cands = []
    for k in range(m):
        d = centers[k] - c
        cands.append(centers[k] + R * d / float(np.linalg.norm(d)))
    for i in range(m):
        for j in range(i + 1, m):
            cands.extend(circle_intersections(centers[i], R, centers[j], R))
    radii = [R] * m
    inside = [p for p in cands if _in_all(p, centers, radii, 1e-9)]
    if not inside:
        raise BenchError("no candidate farthest point lies in the intersection")
    return max(float(np.linalg.norm(p - c)) for p in inside)


# ------------------------------------------------------------------- planar-stream

def _shuffled(rng, rnd: list) -> list:
    return [rnd[k] for k in rng.permutation(len(rnd))]


def _planar_feas_base(i: int):
    """Disks drawn as the acceptance suite draws them; None when near-threshold."""
    rng = np.random.default_rng([_BASE_SEED, 1, i])
    m = 2 + i % 2
    centers = rng.uniform(-2.0, 2.0, (m, 2))
    radii = rng.uniform(0.5, 1.5, m)
    shrunk = disks_intersect(centers, radii - FEAS_MARGIN)
    grown = disks_intersect(centers, radii + FEAS_MARGIN)
    if shrunk != grown:
        return None
    return centers, radii


def _planar_incl_base(i: int):
    rng = np.random.default_rng([_BASE_SEED, 2, i])
    m = 1 + i % 3
    R = rng.uniform(0.6, 1.2)
    z0 = rng.uniform(-1.0, 1.0, 2)
    centers = np.array([z0 + 0.5 * R * rng.uniform(0.0, 1.0) * _unit(rng, 2) for _ in range(m)])
    max_off = max(float(np.linalg.norm(ck - z0)) for ck in centers)
    c = z0 + (2.0 * R + max_off + rng.uniform(0.13, 1.5)) * _unit(rng, 2)
    r_star = farthest_distance(centers, R, c)
    r = r_star * INCL_FACTORS[i % len(INCL_FACTORS)]
    if abs(r_star - r) <= INCL_MARGIN:
        return None
    return centers, R, c, r


def _planar(seed: int, rounds: int) -> Specs:
    rng = np.random.default_rng([seed, 0])
    out = Specs([])
    fi = ii = 0
    for _ in range(rounds):
        rnd = []
        for _slot in range(2):
            while (base := _planar_feas_base(fi)) is None:
                out.dropped += 1
                fi += 1
            fi += 1
            centers, radii = base
            centers = _Reflection(rng, 2)(centers)
            feasible = disks_intersect(centers, radii)
            rnd.append(Spec("feas", f"feas m={len(radii)}",
                            {"centers": centers, "radii": radii, "max_iters": 200_000},
                            "feasible" if feasible else "infeasible"))
        while (base := _planar_incl_base(ii)) is None:
            out.dropped += 1
            ii += 1
        ii += 1
        centers, R, c, r = base
        flip = _Reflection(rng, 2)
        centers, c = flip(centers), flip(c)
        r_star = farthest_distance(centers, R, c)
        rnd.append(Spec("incl", f"incl m={len(centers)}",
                        {"centers": centers, "R": R, "c": c, "r": r},
                        "nonempty_difference" if r < r_star else "included"))
        out.rounds.append(_shuffled(rng, rnd))
    return out


# ------------------------------------------------------------ wide: feasibility

def _wide_feas_base(n: int, feasible: bool):
    """Balls and halfspaces, feasible or infeasible by construction.

    Feasible: every constraint holds at an anchor z with distance slack in
    [0.2, 1]. Infeasible: additionally one halfspace is replaced by one that
    cuts a whole ball off with a gap in [0.3, 0.6].
    """
    rng = np.random.default_rng([_BASE_SEED, 3, n, int(feasible)])
    mb = int(rng.integers(8, 17))
    mh = int(rng.integers(8, 17))
    z = rng.uniform(-1.0, 1.0, n)
    radii = rng.uniform(1.0, 2.0, mb)
    slack = rng.uniform(0.2, 1.0, mb)
    centers = np.array([z + (radii[k] - slack[k]) * rng.uniform(0.0, 1.0) * _unit(rng, n)
                        for k in range(mb)])
    A = np.array([_unit(rng, n) for _ in range(mh)])
    b = A @ z + rng.uniform(0.2, 1.0, mh)
    if not feasible:
        k = int(rng.integers(mb))
        h = int(rng.integers(mh))
        b[h] = float(A[h] @ centers[k]) - radii[k] - rng.uniform(0.3, 0.6)
    return centers, radii, A, b, z


def _wide_feas_round(rng, bases) -> list[Spec]:
    rnd = []
    for (n, feasible), (centers, radii, A, b, _) in bases.items():
        flip = _Reflection(rng, n)
        verdict = "feasible" if feasible else "infeasible"
        rnd.append(Spec("feas", f"feas n={n} {verdict}",
                        {"centers": flip(centers), "radii": radii, "A": flip(A), "b": b},
                        verdict))
    return rnd


# -------------------------------------------------------------- wide: inclusion

WIDE_INCL_SHAPES = ((10, 8), (16, 6))


def _wide_incl_base(n: int, m: int, side: str):
    """Equal-radius balls with an outer radius on a certain side of r*.

    Centers lie within 0.5 R of an anchor z0 and ||c - z0|| > 2R + max_off,
    so d(c, C1) > R. z0 is in C1, so r < ||c - z0|| leaves a nonempty
    difference; C1 lies in B(z0, R + max_off), so r > ||c - z0|| + R + max_off
    includes it.
    """
    rng = np.random.default_rng([_BASE_SEED, 4, n, m, int(side == "included")])
    R = 1.0
    z0 = rng.uniform(-1.0, 1.0, n)
    centers = np.array([z0 + 0.5 * R * rng.uniform(0.0, 1.0) * _unit(rng, n) for _ in range(m)])
    max_off = max(float(np.linalg.norm(ck - z0)) for ck in centers)
    c = z0 + (2.0 * R + max_off + rng.uniform(0.2, 1.0)) * _unit(rng, n)
    dist = float(np.linalg.norm(c - z0))
    if side == "included":
        r = (dist + R + max_off) * rng.uniform(1.02, 1.2)
    else:
        r = dist * rng.uniform(0.8, 0.97)
    return centers, R, c, r, z0


def _wide_incl_round(rng, bases) -> list[Spec]:
    rnd = []
    for (n, m, side), (centers, R, c, r, _) in bases.items():
        flip = _Reflection(rng, n)
        rnd.append(Spec("incl", f"incl n={n} m={m} {side}",
                        {"centers": flip(centers), "R": R, "c": flip(c), "r": r}, side))
    return rnd


def _wide(seed: int, rounds: int) -> Specs:
    """Feasibility and inclusion at n >= 10, one round holding every class of both."""
    rng = np.random.default_rng([seed, 0])
    feas = {(n, f): _wide_feas_base(n, f) for n in (20, 50) for f in (True, False)}
    incl = {(n, m, side): _wide_incl_base(n, m, side) for n, m in WIDE_INCL_SHAPES
            for side in ("nonempty_difference", "included")}
    out = Specs([])
    for _ in range(rounds):
        rnd = _wide_feas_round(rng, feas) + _wide_incl_round(rng, incl)
        out.rounds.append(_shuffled(rng, rnd))
    return out


# -------------------------------------------------------------------- fixtures-cli

# (argv without --seed, expected exit code, value check name, runs per round).
# The two ~0.1 s commands run twice per round: with them the median rank
# falls inside the ~0.1 s cluster rather than on its edge next to the ~25 ms
# commands. At 5 rounds the tail rank falls inside the ten ~2 s runs of
# farthest single-disk-far-c and appbound square-and-disk; at 4 it fell on
# their lower edge and spread 0.15 (IQR over median) against 0.04 at 5.
CLI_COMMANDS = (
    (["feas", "disjoint-disks"], 1, "g_tilde_min", 1),
    (["feas", "overlapping-disks"], 0, "witness", 1),
    (["inclusion", "single-disk-far-c", "--r", "6.1"], 1, "included", 2),
    (["inclusion", "lens-far-c"], 0, "nonempty", 1),
    (["inclusion", "c-inside"], 3, "precondition", 1),
    (["farthest", "lens-far-c"], 0, "r_star_4", 1),
    (["farthest", "single-disk-far-c"], 0, "r_star_6", 1),
    (["appbound", "square-and-disk"], 0, "sandwich", 1),
    (["appbound", "big-square"], 4, "counterexample", 2),
)


def _fixtures(seed: int, rounds: int) -> Specs:
    """Every command once or twice per round, in an order drawn from the seed.

    The ``--seed`` flag is the round number, not drawn from the seed: it
    steers appbound's hit-and-run sampling, so a drawn flag would change a
    run's work with the seed, as drawn geometry would elsewhere.
    """
    rng = np.random.default_rng([seed, 0])
    out = Specs([])
    for k in range(rounds):
        cli_seed = str(k)
        rnd = [Spec("cli", f"{argv[0]} {argv[1]}", {"argv": argv, "seed": cli_seed, "check": check}, code)
               for argv, code, check, runs in CLI_COMMANDS for _ in range(runs)]
        out.rounds.append(_shuffled(rng, rnd))
    return out


def make_specs(workload: str, seed: int, rounds: int) -> Specs:
    return {"planar-stream": _planar, "wide": _wide,
            "fixtures-cli": _fixtures}[workload](seed, rounds)


# ----------------------------------------------------------- library objects / queries

@dataclass
class Query:
    """A built query: ``call()`` is timed, ``check(result)`` is not.

    ``check`` returns ``(outcome, ok)``; ``outcome`` is a short deterministic
    string (verdict or exit code plus the report's work counter) that two
    runs of the same seed must reproduce exactly.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple[str, bool]]


def _verdict_check(expect: str):
    def check(rep) -> tuple[str, bool]:
        return f"{rep.verdict.value}/{rep.iters}", rep.verdict.value == expect
    return check


def _feas_query(spec: Spec, hs) -> Query:
    d = spec.data
    fns = [hs.ball_constraint(hs.Ball(c, r)) for c, r in zip(d["centers"], d["radii"])]
    if "A" in d:
        fns.extend(hs.halfspace_constraint(a, b) for a, b in zip(d["A"], d["b"]))
    cs = hs.ConstraintSet(fns)
    cfg = hs.SolverConfig(max_iters=d.get("max_iters", 50_000))
    return Query(spec.label, lambda: hs.check_feasibility(cs, cfg=cfg), _verdict_check(spec.expect))


def _incl_query(spec: Spec, hs) -> Query:
    d = spec.data
    bi = hs.BallIntersection(list(d["centers"]), d["R"])
    ob = hs.OuterBall(d["c"], d["r"])
    return Query(spec.label, lambda: hs.check_inclusion(bi, ob), _verdict_check(spec.expect))


def _cli_value_ok(check: str, doc: dict, eps: float = 1e-4, tol: float = 1e-8) -> bool:
    """Known answers of the shipped fixtures."""
    if check == "g_tilde_min":
        # two unit disks at distance 3: 2 * (1.5^2 - 1) = 2.5
        return doc["verdict"] == "infeasible" and abs(doc["g_tilde_min"] - 2.5) <= 10 * tol
    if check == "witness":
        return doc["verdict"] == "feasible" and max(doc["residuals"]) <= tol
    if check == "included":
        return doc["verdict"] == "included"
    if check == "nonempty":
        return doc["verdict"] == "nonempty_difference"
    if check == "precondition":
        return doc.get("error") == "precondition_failed"
    if check == "r_star_4":
        return abs(doc["r_star"] - 4.0) <= 2 * eps
    if check == "r_star_6":
        return abs(doc["r_star"] - 6.0) <= 2 * eps
    if check == "sandwich":
        # V_c is a bisection midpoint within eps of 4.5; x_hat realizes the sandwich
        v_c, dist = doc["v_c"], doc["dist_x_hat"]
        return (abs(v_c - 4.5) <= 2 * eps
                and v_c - 2 * eps <= dist <= v_c + doc["delta"] + 2 * eps)
    if check == "counterexample":
        return (doc.get("error") == "hypothesis_violation"
                and doc["counterexample"] is not None and doc["distance"] > doc["delta"])
    raise BenchError(f"unknown check {check!r}")


def _cli_query(spec: Spec, problems: Path) -> Query:
    import hullscope.cli as cli

    d = spec.data
    argv = [d["argv"][0], str(problems / f"{d['argv'][1]}.json"), *d["argv"][2:], "--seed", d["seed"]]

    def call():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def check(result) -> tuple[str, bool]:
        code, text = result
        try:
            ok = code == spec.expect and _cli_value_ok(d["check"], json.loads(text))
        except (ValueError, KeyError, TypeError):
            ok = False
        return f"{code}/{text}", ok

    return Query(spec.label, call, check)


def build_query(spec: Spec, hs, problems: Path) -> Query:
    if spec.kind == "feas":
        return _feas_query(spec, hs)
    if spec.kind == "incl":
        return _incl_query(spec, hs)
    return _cli_query(spec, problems)


def warmup_specs(workload: str) -> list[Spec]:
    """Fixed small queries of the workload's kinds, run during set-up.

    Their time counts in ``setup_s``, not in the timed loop, and they do not
    depend on the seed, so the set-up time does not either.
    """
    if workload == "fixtures-cli":
        return [Spec("cli", "feas overlapping-disks",
                     {"argv": ["feas", "overlapping-disks"], "seed": "0", "check": "witness"}, 0)]
    feas = Spec("feas", "warm-up feas", {"centers": np.array([[0.0, 0.0], [1.0, 0.0]]),
                                         "radii": np.array([1.0, 1.0])}, "feasible")
    incl = Spec("incl", "warm-up incl", {"centers": np.array([[0.0, 0.0], [1.0, 0.0]]), "R": 1.0,
                                         "c": np.array([4.0, 0.0]), "r": 3.5}, "nonempty_difference")
    return {"planar-stream": [feas, incl], "wide": [feas, incl]}[workload]
