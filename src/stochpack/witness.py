"""Witness-cover enumeration and the empirical infeasibility laboratory.

A witness cover for a target value mu is a finite set of nonnegative dual
vectors, each with objective y.b at most (1 - eps')*mu, whose collective
infeasibility against a cost vector certifies that no dual solution of value
at most (1 - eps)*mu exists.  Two constructions are enumerable at desk scale:
all integer vectors under the cap (dual-integral systems, eps' = eps) and a
per-row discretized grid with a support bound (sparse duals, eps' = eps/2).

The dynamics half of the module tracks which cover members stay feasible
against the pessimistic vector as queries land, either attached to a real
strategy run (fixed draw of nature) or in a resampled mode that redraws
nature every round and therefore matches the closed-form per-step survival
products exactly.

Enumeration is pure; all thresholds are checked in exact rational
arithmetic.  Pass `Fraction` parameters for exact cutoffs; plain floats are
converted to their exact binary value.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .errors import SizeRefusalError, StructureError
from .instances import (
    PackingInstance,
    QueryOracle,
    StochasticObjective,
    sample_realization,
)
from .lp import LpProblem, solve_dual_explicit

TDI_ROW_LIMIT = 12
TDI_MU_LIMIT = 8
SPARSE_ROW_LIMIT = 10
SPARSE_GRID_LIMIT = 2_000_000


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


@dataclass(frozen=True)
class WitnessCover:
    vectors: tuple[tuple[Fraction, ...], ...]
    b: tuple[int, ...]
    mu: Fraction
    epsilon: Fraction
    epsilon_prime: Fraction
    kind: str

    @property
    def cap(self) -> Fraction:
        return (1 - self.epsilon_prime) * self.mu

    def __len__(self) -> int:
        return len(self.vectors)

    def matrix(self) -> np.ndarray:
        return np.array([[float(v) for v in y] for y in self.vectors], dtype=float)

    def check_caps(self) -> bool:
        """Exact check that every member satisfies y.b <= (1 - eps')*mu."""
        cap = self.cap
        return all(
            sum(yi * bi for yi, bi in zip(y, self.b)) <= cap for y in self.vectors
        )

    def to_text(self) -> str:
        lines = [
            f"witness cover kind={self.kind} mu={self.mu} "
            f"eps={self.epsilon} eps'={self.epsilon_prime} cap={self.cap} "
            f"size={len(self.vectors)}",
        ]
        lines += ["  (" + ", ".join(str(v) for v in y) + ")" for y in self.vectors]
        return "\n".join(lines)


def _check_b(b) -> tuple[int, ...]:
    bt = tuple(int(v) for v in b)
    if any(v < 1 for v in bt):
        raise StructureError("capacities must be >= 1")
    return bt


def enumerate_tdi_cover(b, mu, epsilon) -> WitnessCover:
    """All integer dual vectors with y.b <= (1 - eps)*mu (recursive walk)."""
    bt = _check_b(b)
    mu_f, eps_f = _frac(mu), _frac(epsilon)
    if not (0 < eps_f <= 1):
        raise StructureError("epsilon must be in (0, 1]")
    if len(bt) > TDI_ROW_LIMIT or mu_f > TDI_MU_LIMIT:
        raise SizeRefusalError(
            f"integer cover enumeration limited to n <= {TDI_ROW_LIMIT}, "
            f"mu <= {TDI_MU_LIMIT}"
        )
    cap = (1 - eps_f) * mu_f
    vectors: list[tuple[Fraction, ...]] = []
    n = len(bt)

    def walk(i: int, remaining: Fraction, prefix: list[Fraction]) -> None:
        if i == n:
            vectors.append(tuple(prefix))
            return
        top = int(remaining // bt[i])
        for v in range(top + 1):
            prefix.append(Fraction(v))
            walk(i + 1, remaining - v * bt[i], prefix)
            prefix.pop()

    if cap >= 0:
        walk(0, cap, [])
    return WitnessCover(
        vectors=tuple(vectors),
        b=bt,
        mu=mu_f,
        epsilon=eps_f,
        epsilon_prime=eps_f,
        kind="tdi-integer",
    )


def tdi_cover_size_bound(n: int, mu, constant: float = 3.0) -> float:
    """exp(constant * mu * log(1 + n/mu)); a plotting companion, not a gate."""
    mu_f = float(mu)
    if mu_f <= 0:
        return 1.0
    return math.exp(constant * mu_f * math.log(1 + n / mu_f))


def sparse_grid_step(b_i: int, epsilon, gamma) -> Fraction:
    return _frac(epsilon) / (2 * int(b_i) * _frac(gamma))


def enumerate_sparse_cover(b, mu, epsilon, gamma) -> WitnessCover:
    """Grid vectors with y.b <= (1 - eps/2)*mu and support at most gamma*mu.

    Row i is discretized to multiples of eps / (2 * b_i * gamma), so each
    grid token adds exactly eps/(2*gamma) to the dual objective regardless of
    the row.  Enumeration walks supports recursively.
    """
    bt = _check_b(b)
    mu_f, eps_f, gamma_f = _frac(mu), _frac(epsilon), _frac(gamma)
    if not (0 < eps_f <= 1) or gamma_f <= 0:
        raise StructureError("need epsilon in (0, 1] and gamma > 0")
    n = len(bt)
    cap = (1 - eps_f / 2) * mu_f
    token_value = eps_f / (2 * gamma_f)
    max_tokens = int(cap // token_value) if cap >= 0 else -1
    max_support = int(gamma_f * mu_f)
    if n > SPARSE_ROW_LIMIT:
        raise SizeRefusalError(f"sparse cover enumeration limited to n <= {SPARSE_ROW_LIMIT}")
    if (max_tokens + 2) ** min(n, max_support + 1) > SPARSE_GRID_LIMIT:
        raise SizeRefusalError("sparse cover grid too large to enumerate")
    steps = [sparse_grid_step(bi, eps_f, gamma_f) for bi in bt]
    vectors: list[tuple[Fraction, ...]] = []

    def walk(i: int, tokens_left: int, support_left: int, prefix: list[Fraction]):
        if i == n:
            vectors.append(tuple(prefix))
            return
        prefix.append(Fraction(0))
        walk(i + 1, tokens_left, support_left, prefix)
        prefix.pop()
        if support_left > 0:
            for k in range(1, tokens_left + 1):
                prefix.append(k * steps[i])
                walk(i + 1, tokens_left - k, support_left - 1, prefix)
                prefix.pop()

    if max_tokens >= 0:
        walk(0, max_tokens, max_support, [])
    return WitnessCover(
        vectors=tuple(vectors),
        b=bt,
        mu=mu_f,
        epsilon=eps_f,
        epsilon_prime=eps_f / 2,
        kind="sparse-grid",
    )


def grid_round_up(y, b, epsilon, gamma):
    """Per-entry round-up to the sparse grid; zeros stay zero.

    If y has y.b <= (1 - eps)*mu and support at most gamma*mu, the result
    dominates y componentwise and its objective is at most (1 - eps/2)*mu.
    """
    bt = _check_b(b)
    out = []
    for yi, bi in zip(y, bt):
        step = sparse_grid_step(bi, epsilon, gamma)
        f = _frac(yi)
        out.append(step * math.ceil(f / step))
    return tuple(out)


@dataclass(frozen=True)
class CoverPropertyReport:
    all_infeasible: bool
    feasible_members: tuple[int, ...]
    dual_optimum: Optional[object]
    threshold: Fraction
    margin: Optional[object]
    holds: Optional[bool]

    def __str__(self) -> str:
        if not self.all_infeasible:
            return (
                "vacuous: cover members "
                f"{list(self.feasible_members)} are feasible for this cost"
            )
        state = "holds" if self.holds else "VIOLATED"
        return (
            f"{state}: dual optimum {self.dual_optimum} vs threshold "
            f"{self.threshold} (margin {self.margin})"
        )


def verify_cover_property(
    cover: WitnessCover, A, c, arithmetic: str = "rational"
) -> CoverPropertyReport:
    """Check the covering property against one cost vector.

    If every member violates y.A >= c, the auxiliary LP min{y.b : y.A >= c}
    must have optimum above (1 - eps)*mu; the report carries the margin.
    Members that are feasible make the premise vacuous and are listed.
    """
    A = np.asarray(A)
    c = np.asarray(c)
    if A.shape != (len(cover.b), c.shape[0]):
        raise StructureError("cover, matrix, and cost dimensions disagree")
    feasible = []
    Af = [[Fraction(int(v)) for v in row] for row in A.tolist()]
    cf = [Fraction(int(v)) for v in c.tolist()]
    for idx, y in enumerate(cover.vectors):
        ok = True
        for j in range(c.shape[0]):
            lhs = sum(y[i] * Af[i][j] for i in range(len(cover.b)))
            if lhs < cf[j]:
                ok = False
                break
        if ok:
            feasible.append(idx)
    threshold = (1 - cover.epsilon) * cover.mu
    if feasible:
        return CoverPropertyReport(
            all_infeasible=False,
            feasible_members=tuple(feasible),
            dual_optimum=None,
            threshold=threshold,
            margin=None,
            holds=None,
        )
    prob = LpProblem(A, np.array(cover.b), c)
    dual = solve_dual_explicit(prob, arithmetic=arithmetic)
    opt = dual.value
    margin = (opt - threshold) if arithmetic == "rational" else float(opt) - float(
        threshold
    )
    holds = (opt > threshold) if arithmetic == "rational" else float(opt) > float(
        threshold
    ) - 1e-9
    return CoverPropertyReport(
        all_infeasible=True,
        feasible_members=(),
        dual_optimum=opt,
        threshold=threshold,
        margin=margin,
        holds=bool(holds),
    )


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------


def survival_bound(epsilon_prime, p, mu, delta_c, t) -> float:
    """exp(-eps' * p * mu * t / delta_c), the per-step product bound."""
    if delta_c <= 0:
        raise StructureError("delta_c must be positive for the survival bound")
    return math.exp(-float(epsilon_prime) * float(p) * float(mu) * t / float(delta_c))


class WitnessTracker:
    """Feasibility of fixed dual vectors against successive pessimistic vectors.

    ``hook`` plugs straight into a strategy run.  Feasibility of y means
    y.A >= c componentwise; once the pessimistic vector has grown past some
    component, the member can never return to feasible, and
    ``monotone_violations`` counts any observation that contradicts that.
    """

    def __init__(self, vectors, A):
        W = np.asarray(vectors, dtype=float)
        if W.ndim != 2:
            W = W.reshape(1, -1)
        A = np.asarray(A, dtype=float)
        if W.shape[1] != A.shape[0]:
            raise StructureError("vector length does not match the row count")
        self.WA = W @ A
        self.history: list[np.ndarray] = []

    def hook(self, t: int, pessimistic: np.ndarray) -> None:
        self.observe(pessimistic)

    def observe(self, c_pessimistic) -> np.ndarray:
        c = np.asarray(c_pessimistic, dtype=float)
        feas = np.all(self.WA >= c - 1e-9, axis=1)
        self.history.append(feas)
        return feas

    def feasibility_matrix(self) -> np.ndarray:
        return np.array(self.history, dtype=bool)

    def monotone_violations(self) -> int:
        mat = self.feasibility_matrix()
        if mat.shape[0] < 2:
            return 0
        revived = (~mat[:-1]) & mat[1:]
        return int(revived.sum())

    def to_text(self) -> str:
        mat = self.feasibility_matrix()
        lines = ["t " + " ".join(f"y{k}" for k in range(mat.shape[1]))]
        for t, row in enumerate(mat):
            lines.append(f"{t} " + " ".join("F" if v else "." for v in row))
        return "\n".join(lines)


@dataclass
class SurvivalCurve:
    """Per-round survival frequencies, one column per tracked vector."""

    frequencies: np.ndarray  # (rounds + 1, n_vectors); row 0 is the start
    n_trials: int
    mu: float
    epsilon_prime: float
    p: float
    delta_c: float

    def bound(self, t: int) -> float:
        return survival_bound(self.epsilon_prime, self.p, self.mu, self.delta_c, t)

    def max_over_members(self) -> np.ndarray:
        return self.frequencies.max(axis=1)

    def to_csv(self) -> str:
        out = io.StringIO()
        cols = ",".join(f"y{k}" for k in range(self.frequencies.shape[1]))
        out.write(f"t,{cols},bound\n")
        for t, row in enumerate(self.frequencies):
            vals = ",".join(f"{v:.6f}" for v in row)
            out.write(f"{t},{vals},{self.bound(t):.6f}\n")
        return out.getvalue()


def run_resampled_dynamics(
    A,
    cover: WitnessCover,
    obj: StochasticObjective,
    x_probs,
    rounds: int,
    n_trials: int,
    seed: int,
) -> SurvivalCurve:
    """Per-step survival with nature redrawn every round.

    Each round, item j is revealed with probability x_probs[j] and lands on
    its top value with probability p, independently of all other rounds; a
    member dies when a revealed value exceeds its row combination.  This
    models the single-step argument exactly, so the survival of a member
    equals prod_j (1 - p x_j) over its violated items, per round.
    """
    A = np.asarray(A, dtype=float)
    W = cover.matrix()
    if W.size == 0:
        raise StructureError("cover has no vectors to track")
    WA = W @ A
    kill_top = WA < np.asarray(obj.c_plus, dtype=float) - 1e-9
    kill_bot = WA < np.asarray(obj.c_minus, dtype=float) - 1e-9
    x = np.asarray(x_probs, dtype=float)
    rng = np.random.default_rng(seed)
    alive = np.repeat(
        np.all(WA >= np.asarray(obj.c_minus, dtype=float) - 1e-9, axis=1)[None, :],
        n_trials,
        axis=0,
    )
    freqs = [alive.mean(axis=0)]
    for _ in range(rounds):
        reveal = rng.random((n_trials, obj.m)) < x
        top = rng.random((n_trials, obj.m)) < obj.p
        died = ((reveal & top) @ kill_top.T > 0) | ((reveal & ~top) @ kill_bot.T > 0)
        alive &= ~died
        freqs.append(alive.mean(axis=0))
    return SurvivalCurve(
        frequencies=np.array(freqs),
        n_trials=n_trials,
        mu=float(cover.mu),
        epsilon_prime=float(cover.epsilon_prime),
        p=obj.p,
        delta_c=float(obj.delta_c),
    )


@dataclass
class AttachedDynamics:
    """Stratified-by-realized-value survival over real strategy runs."""

    per_mu: dict  # mu_key -> (n_trials, frequencies (T_obs, n_vectors))
    monotone_violations: int
    epsilon_prime: float
    p: float
    delta_c: float
    rounds: int

    def worst_excess(self) -> float:
        """Largest amount by which any survival frequency exceeds its bound.

        Observation row t reflects the state after min(t, rounds) query
        rounds (a trailing batch-reveal row reuses the last round's bound).
        """
        worst = 0.0
        for mu_key, (_, freq) in self.per_mu.items():
            if mu_key <= 0:
                continue
            for t in range(freq.shape[0]):
                bound = survival_bound(
                    self.epsilon_prime, self.p, mu_key, self.delta_c,
                    min(t, self.rounds),
                )
                worst = max(worst, float(freq[t].max()) - bound)
        return worst


def run_attached_dynamics(
    inst: PackingInstance,
    obj: StochasticObjective,
    adapter,
    cover_builder: Callable[[float], WitnessCover],
    run_fn,
    config_factory,
    n_trials: int,
    seed: int,
) -> AttachedDynamics:
    """Track covers for the realized omniscient value across real runs.

    ``cover_builder(mu)`` supplies the cover for each realized value;
    ``config_factory(trial)`` the strategy configuration; ``run_fn`` is
    either strategy runner.  Nature's draw is known to the laboratory (it
    picks the cover) but not to the strategy being run.
    """
    per_mu: dict = {}
    violations = 0
    eps_prime = None
    rounds = 0
    for trial in range(n_trials):
        realization = sample_realization(obj, seed + 7919 * trial)
        oracle = QueryOracle(inst, realization)
        mu = float(adapter.solve_relaxation(realization.c).value)
        mu_key = round(mu, 9)
        cover = cover_builder(mu)
        if eps_prime is None:
            eps_prime = float(cover.epsilon_prime)
        if len(cover) == 0:
            continue
        tracker = WitnessTracker(cover.matrix(), inst.A)
        config = config_factory(trial)
        rounds = config.T
        run_fn(inst, obj, oracle, adapter, config, hook=tracker.hook)
        violations += tracker.monotone_violations()
        mat = tracker.feasibility_matrix().astype(float)
        if mu_key not in per_mu:
            per_mu[mu_key] = [0, np.zeros_like(mat)]
        agg = per_mu[mu_key]
        agg[0] += 1
        agg[1] = agg[1] + mat
    final = {
        k: (count, total / count) for k, (count, total) in per_mu.items() if count
    }
    return AttachedDynamics(
        per_mu=final,
        monotone_violations=violations,
        epsilon_prime=eps_prime if eps_prime is not None else 0.0,
        p=obj.p,
        delta_c=float(obj.delta_c),
        rounds=rounds,
    )


def sample_integer_witnesses(b, cap, count, seed) -> np.ndarray:
    """Seeded sample of integer vectors with y.b <= cap (zero always included).

    Covers at realistic sizes are too large to track whole; monotone
    infeasibility is a per-vector property, so a sample is just as binding.
    """
    bt = _check_b(b)
    n = len(bt)
    rng = np.random.default_rng(seed)
    seen = {(0,) * n}
    cap = float(cap)
    attempts = 0
    while len(seen) < count + 1 and attempts < 50 * count:
        attempts += 1
        y = [0] * n
        budget = cap
        order = rng.permutation(n)
        for i in order:
            top = int(budget // bt[i])
            if top <= 0:
                continue
            v = int(rng.integers(0, top + 1))
            y[i] = v
            budget -= v * bt[i]
        seen.add(tuple(y))
    return np.array(sorted(seen), dtype=float)
