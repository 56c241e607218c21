"""Checks of ``run_experiment`` rows made apart from the program, after the timed part.

For every row the trial's instance and realization are rebuilt from the
documented seeds: ``child_seed`` (SHA-256 over the master seed and the stream
tags) and the two-point draw of nature are re-derived here; instances come
from the seeded generators or the instance file.  ``omniscient_lp`` is then
recomputed with HiGHS (``scipy.optimize.linprog``) and ``omniscient_ip`` with
``scipy.optimize.milp``.  On the odd-set family the LP runs over an odd-set
system enumerated here, and both values must also equal the networkx maximum
weight matching, since the odd-set polytope is integral.  The method's own
properties are checked on every row, and for strategies at the default T the
Wilson upper bound of the success rate must reach the paper's ``1 - delta``.
Nothing is compared against stored output.
"""

from __future__ import annotations

import hashlib
import math
import os

import networkx as nx
import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

TOL = 1e-6
#: Families whose relaxation carries explicit unit upper bounds.
UNIT_BOUNDED = ("k-cspip", "matroid")


def child_seed(master_seed, *parts) -> int:
    text = "|".join(str(p) for p in (master_seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def realized_values(obj, nature_seed: int) -> np.ndarray:
    """Nature's two-point draw: the top value with probability p, else the floor."""
    top = np.random.default_rng(nature_seed).random(obj.m) < obj.p
    return np.where(top, obj.c_plus, obj.c_minus)


def wilson_upper(successes: int, trials: int, z: float = 1.96) -> float:
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return min(1.0, center + half)


def odd_set_system(inst):
    """Degree rows plus x(E(S)) <= floor(|S|/2) for every odd S, |S| >= 3."""
    n = int(inst.meta["n_vertices"])
    edges = np.asarray(inst.meta["edges"], dtype=np.int64)
    masks = np.arange(1 << n, dtype=np.int64)
    sizes = np.array([bin(int(s)).count("1") for s in masks])
    odd = (sizes >= 3) & (sizes % 2 == 1)
    masks, sizes = masks[odd], sizes[odd]
    inside = ((masks[:, None] >> edges[:, 0]) & 1) & ((masks[:, None] >> edges[:, 1]) & 1)
    keep = inside.any(axis=1)
    A = np.vstack([inst.A, inside[keep]])
    b = np.concatenate([inst.b, sizes[keep] // 2])
    return A, b


def matching_value(inst, c) -> int:
    graph = nx.Graph()
    for (u, v), w in zip(inst.meta["edges"], c):
        if w > 0:
            graph.add_edge(int(u), int(v), weight=int(w))
    return sum(graph[u][v]["weight"] for u, v in nx.max_weight_matching(graph))


class Checker:
    """Checks the rows of one run, call by call; ``finish`` adds the Wilson check."""

    def __init__(self):
        self.problems: list[str] = []
        self.rows_checked = 0
        self._files: dict[str, tuple] = {}
        self._odd_sets: dict[tuple, tuple] = {}
        self._tallies: dict[tuple, list] = {}

    def _problem(self, where: str, text: str) -> None:
        self.problems.append(f"{where}: {text}")

    def _instance(self, spec: dict, trial: int):
        from stochpack.generators import gen_objective, generate
        from stochpack.instances import load_instance

        source, master = spec["instance"], spec["master_seed"]
        if "file" in source:
            path = source["file"]
            if path not in self._files:
                self._files[path] = load_instance(path)
            return (os.path.basename(path), *self._files[path])
        kind, params = source["kind"], source.get("params", {})
        per_trial = bool(source.get("per_trial", True))
        tag = trial if per_trial else 0
        inst = generate(kind, params, child_seed(master, "instance", kind, tag))
        objective = spec["objective"]
        obj = gen_objective(
            inst.m,
            child_seed(master, "objective", kind, tag),
            c_low=tuple(objective["c_low"]),
            c_high=tuple(objective["c_high"]),
            p=float(objective["p"]),
        )
        return (f"{kind}#{tag}" if per_trial else kind), inst, obj

    def _omniscient(self, inst, c):
        """(LP value by HiGHS, IP value by milp, matching value or None)."""
        c = np.asarray(c, dtype=np.float64)
        if inst.family == "nonbipartite-matching":
            graph = (inst.meta["n_vertices"], tuple(map(tuple, inst.meta["edges"])))
            if graph not in self._odd_sets:
                self._odd_sets[graph] = odd_set_system(inst)
            A, b = self._odd_sets[graph]
        else:
            A, b = inst.A, inst.b
        upper = 1 if inst.family in UNIT_BOUNDED else None
        lp = linprog(-c, A_ub=A, b_ub=b, bounds=(0, upper), method="highs")
        ip = milp(
            -c,
            constraints=LinearConstraint(inst.A, -np.inf, inst.b),
            integrality=np.ones(inst.m),
            bounds=Bounds(0, 1),
        )
        if lp.status != 0 or ip.status != 0:
            raise RuntimeError(f"reference solver failed: {lp.message} / {ip.message}")
        matching = matching_value(inst, c) if inst.family == "nonbipartite-matching" else None
        return -lp.fun, int(round(-ip.fun)), matching

    def check_call(self, name: str, spec: dict, rows: list[dict]) -> None:
        """Check the rows one ``run_experiment`` call returned for ``spec``."""
        grid = [("strategy", s) for s in spec.get("strategies", [])]
        grid += [("baseline", b) for b in spec.get("baselines", [])]
        trials, master = int(spec["trials"]), spec["master_seed"]
        where = f"{name} master_seed={master}"
        if len(rows) != len(grid) * trials:
            self._problem(where, f"{len(rows)} rows for {len(grid)} x {trials} trials")
            return
        truth = {}
        for index, row in enumerate(rows):
            kind, entry = grid[index // trials]
            trial = index % trials
            at = f"{where} row {index}"
            if row["error"]:
                continue
            if trial not in truth:
                instance_id, inst, obj = self._instance(spec, trial)
                nature = child_seed(master, instance_id, trial, "nature")
                c = realized_values(obj, nature)
                truth[trial] = (instance_id, inst, nature, self._omniscient(inst, c))
            instance_id, inst, nature, (lp, ip, matching) = truth[trial]
            self.rows_checked += 1
            self._check_row(at, row, kind, entry, inst, instance_id, nature, lp, ip, matching)
            if kind == "strategy" and entry.get("T") is None:
                tally = self._tallies.setdefault((name, entry["mode"], entry["delta"]), [0, 0])
                tally[0] += int(row["success"])
                tally[1] += 1

    def _check_row(self, at, row, kind, entry, inst, instance_id, nature, lp, ip, matching):
        bad = lambda text: self._problem(at, text)  # noqa: E731
        if row["instance_id"] != instance_id or row["family"] != inst.family:
            bad(f"instance {row['instance_id']}/{row['family']}, expected {instance_id}")
        if int(row["trial_seed"]) != nature:
            bad(f"trial_seed {row['trial_seed']} is not the documented nature seed {nature}")
        mode = entry["mode"] if kind == "strategy" else "baseline:" + (
            entry if isinstance(entry, str) else entry["kind"]
        )
        if row["mode"] != mode:
            bad(f"mode {row['mode']}, expected {mode}")
        if kind == "strategy" and entry.get("T") is not None and int(row["T"]) != entry["T"]:
            bad(f"T {row['T']}, expected {entry['T']}")
        value = int(row["value"])
        pess_lp = float(row["pessimistic_lp"])
        omn_lp = float(row["omniscient_lp"])
        omn_ip = int(row["omniscient_ip"])
        queries = int(row["queries_total"])
        if abs(omn_lp - lp) > TOL:
            bad(f"omniscient_lp {omn_lp}, HiGHS gives {lp}")
        if omn_ip != ip:
            bad(f"omniscient_ip {omn_ip}, milp gives {ip}")
        if matching is not None and (abs(lp - matching) > TOL or ip != matching):
            bad(f"odd-set LP {lp} and IP {ip} differ from the matching value {matching}")
        if not value <= omn_ip <= omn_lp + TOL:
            bad(f"value {value} <= omniscient_ip {omn_ip} <= omniscient_lp {omn_lp} fails")
        if pess_lp > omn_lp + TOL:
            bad(f"pessimistic_lp {pess_lp} exceeds omniscient_lp {omn_lp}")
        ratio_lp = 1.0 if omn_lp <= 1e-12 else value / omn_lp
        ratio_ip = 1.0 if omn_ip <= 0 else value / omn_ip
        if not math.isclose(float(row["ratio_lp"]), ratio_lp, rel_tol=1e-12):
            bad(f"ratio_lp {row['ratio_lp']}, value / omniscient_lp is {ratio_lp}")
        if not math.isclose(float(row["ratio_ip"]), ratio_ip, rel_tol=1e-12):
            bad(f"ratio_ip {row['ratio_ip']}, value / omniscient_ip is {ratio_ip}")
        if not 0 <= queries <= inst.m:
            bad(f"queries_total {queries} outside [0, {inst.m}]")
        if mode == "baseline:omniscient" and (queries != inst.m or value != omn_ip):
            bad(f"omniscient row has {queries} queries and value {value}")
        if mode == "baseline:blind" and queries != 0:
            bad(f"blind row made {queries} queries")
        if kind == "baseline":
            success = value >= omn_ip - 1e-9
        elif entry["mode"] == "adaptive":
            success = pess_lp >= (1 - entry["epsilon"]) * omn_lp - 1e-9
        else:
            success = value >= (1 - entry["epsilon"]) / 2 * omn_lp - 1e-9
        if int(row["success"]) != int(success):
            bad(f"success {row['success']}, the definition gives {int(success)}")

    def finish(self) -> list[str]:
        """All problems, with the success guarantee checked over the whole run."""
        for (name, mode, delta), (successes, trials) in sorted(self._tallies.items()):
            upper = wilson_upper(successes, trials)
            if upper < 1 - delta:
                self._problem(
                    f"{name} {mode}",
                    f"success {successes}/{trials}, Wilson upper bound {upper:.3f} < 1 - delta",
                )
        return self.problems
