"""Potential functions for the game classes that admit them.

Each variant couples a closed-form potential with the hypotheses, one table,
under which a unilateral move changes the potential and the mover's payoff
with the same sign. Hypotheses are validated, not trusted: each theorem has a
narrow scope and silent misuse would be undetectable. Every variant needs θ > 0.

``backoff_complete`` (complete undirected graph, finite-window backoff, fully
user-specific rates) is the log of the product-form potential: a positive
potential and its log order deviations identically, and the log avoids
catastrophic cancellation at throughput scale. The other five are pairwise,
Φ(a) = −Σ_n term_n(c_n, R_n), R_n being user n's co-channel interferers (its
in-neighbours on c_n; in the physical game every other user on c_n); with
V_c = θ_c·B_c and ρ = ln(1 − p):

  weighted_share       (w_n² + ½·w_n·Σ_R w_i) / V_c; undirected graph,
                       channel-wise rates with per-user gains
  backoff_asymptotic   the same with w ≡ 1; infinite-window backoff
  homogeneous_backoff  the same with w ≡ 1 and 1 for ½; finite-window backoff,
                       one θ and one rate for every channel and user
  aloha                ρ_n·(½·Σ_R ρ_i + ln(θ_c·h_n·B_c^n·p_n)); undirected graph,
                       fully user-specific rates
  physical             η_n·(2(ω_c^n + ω_0) + Σ_R η_i·d_ni^−α); SINR payoffs, one θ
"""

from __future__ import annotations

import math
from functools import partial
from itertools import repeat
from operator import mul
from typing import Callable, Iterable

from .contention import AsymptoticBackoff, RandomBackoff, SlottedAloha, WeightedShare, backoff_success_probability
from .errors import PreconditionError
from .game import IMPROVEMENT_RTOL, PhysicalGame, Profile, SpectrumGame, _check_profile, channel_wise_rates, rates_agree
from .graph import classify

_CHANNEL_WISE = (channel_wise_rates, "channel-wise rates (identical mean-rate rows; use gains for user specificity)")
_ONE_THETA = (lambda game: len(set(game.idle_prob)) == 1, "homogeneous channel idle probabilities")
_ONE_RATE = (lambda spec: rates_agree(b for row in spec.mean_rate for b in row),
             "one mean rate shared by all users and channels (use gains for user specificity)")
_POSITIVE_THETA = (lambda game: all(t > 0.0 for t in game.idle_prob), "strictly positive channel idle probabilities")

# variant -> (graph class, mechanism, further hypotheses); the physical game has no graph or mechanism
_HYPOTHESES = {
    "backoff_complete": ("complete_undirected", RandomBackoff, ()),
    "backoff_asymptotic": ("undirected", AsymptoticBackoff, (_CHANNEL_WISE,)),
    "weighted_share": ("undirected", WeightedShare, (_CHANNEL_WISE,)),
    "homogeneous_backoff": ("undirected", RandomBackoff, (_ONE_THETA, _ONE_RATE)),
    "aloha": ("undirected", SlottedAloha, ()),
    "physical": (None, None, (_ONE_THETA,)),
}
_NAMES = {"complete_undirected": "a complete undirected interference graph",
          "undirected": "an undirected interference graph",
          RandomBackoff: "the random backoff mechanism", AsymptoticBackoff: "the asymptotic backoff mechanism",
          WeightedShare: "the weighted sharing mechanism", SlottedAloha: "the Aloha mechanism"}

VARIANTS = tuple(_HYPOTHESES)


def _require(cond: bool, variant: str, what: str) -> None:
    if not cond:
        raise PreconditionError(f"potential variant '{variant}' requires {what}")


def check_hypotheses(game: SpectrumGame | PhysicalGame, variant: str) -> None:
    """Raise PreconditionError naming the first violated hypothesis, if any."""
    if variant not in _HYPOTHESES:
        raise ValueError(f"unknown potential variant '{variant}'")
    graph_class, mechanism, further = _HYPOTHESES[variant]
    if graph_class is None:
        _require(isinstance(game, PhysicalGame), variant, "a physical-interference game")
    else:
        _require(isinstance(game, SpectrumGame), variant, "a graph-based spectrum game")
        _require(getattr(classify(game.graph), graph_class), variant, _NAMES[graph_class])
        _require(isinstance(game.mechanism, mechanism), variant, _NAMES[mechanism])
    for holds, what in further + (_POSITIVE_THETA,):
        _require(holds(game), variant, what)


def applicable_variants(game: SpectrumGame | PhysicalGame) -> list[str]:
    out = []
    for v in VARIANTS:
        try:
            check_hypotheses(game, v)
        except PreconditionError:
            continue
        out.append(v)
    return out


def _interferers(game: SpectrumGame | PhysicalGame, variant: str, a: Profile) -> Iterable:
    """R_n for n = 1..N: user n's co-channel in-neighbours, or in the physical
    game every user on c_n (n itself too: its zero coupling adds nothing)."""
    if variant != "physical":
        return map(game.co_channel_in_neighbors, repeat(a), range(1, game.n_users + 1))
    on: dict[int, list[int]] = {}
    for i, c in enumerate(a, 1):
        on.setdefault(c, []).append(i)
    return map(on.__getitem__, a)


def _pairwise_term(game: SpectrumGame | PhysicalGame, variant: str):
    """term(n, c, R): user n's term of a pairwise potential on channel c
    against its co-channel interferers R, with the game's constants bound once."""
    if variant == "physical":
        eta, omega, omega0, k = (0.0,) + game.tx_power, game.primary_interference, game.noise, game._coupling
        return lambda n, c, rivals: eta[n] * (2.0 * (omega[n - 1][c - 1] + omega0) + sum(map(k[n].__getitem__, rivals)))
    if variant == "aloha":
        p, value = game.mechanism.probs, game._value
        rho = [0.0] + [math.log(1.0 - pi) for pi in p]  # 1-based, as are eta above and w and v below
        return lambda n, c, rivals: rho[n] * (0.5 * sum(map(rho.__getitem__, rivals))
                                              + math.log(value.item(n - 1, c - 1) * p[n - 1]))
    w = (0.0,) + (game.mechanism.weights if variant == "weighted_share" else (1.0,) * game.n_users)
    weigh = (lambda rivals: sum(map(w.__getitem__, rivals))) if variant == "weighted_share" else len  # Σ_R 1 = |R|
    half = 1.0 if variant == "homogeneous_backoff" else 0.5
    v = [0.0, *map(mul, game.idle_prob, game.mean_rate[0])]
    return lambda n, c, rivals: (w[n] ** 2 + half * w[n] * weigh(rivals)) / v[c]


def potential_value(game: SpectrumGame | PhysicalGame, a: Profile, variant: str) -> float:
    """Evaluate the variant's potential at profile a (hypotheses enforced)."""
    check_hypotheses(game, variant)
    _check_profile(game, a)
    return _potential(game, variant)(a)


def _potential(game: SpectrumGame | PhysicalGame, variant: str) -> Callable[[Profile], float]:
    """The variant's potential as a function of a valid profile, the game's
    constants bound once; the hypotheses are the caller's to check."""
    if variant == "backoff_complete":
        return partial(_log_product_potential, game)
    term, users = _pairwise_term(game, variant), range(1, game.n_users + 1)
    return lambda a: -sum(map(term, users, a, _interferers(game, variant, a)))


def _log_product_potential(spec: SpectrumGame, a: Profile) -> float:
    # log of prod_n theta h B * prod_m prod_{c=0}^{K_m - 1} f(c); the
    # per-channel product telescopes exactly against one user's move.
    lam = spec.mechanism.max_counter
    val = sum(math.log(spec._value.item(n - 1, a[n - 1] - 1)) for n in range(1, spec.n_users + 1))
    loads = [0] * spec.n_channels
    for ch in a:
        loads[ch - 1] += 1
    for load in loads:
        for c in range(load):
            val += math.log(backoff_success_probability(lam, c))
    return val


def signed(delta: float, reference: Iterable[float]) -> int:
    """Sign of delta with a dead band of IMPROVEMENT_RTOL times the largest
    reference magnitude, relative at every scale as in strictly_better: for
    non-negative payoffs, signed(new - old, (new, old)) == 1 exactly when
    strictly_better(new, old)."""
    scale = max((abs(r) for r in reference), default=0.0)
    if abs(delta) <= IMPROVEMENT_RTOL * scale:
        return 0
    return 1 if delta > 0 else -1


def deviation_checker(game: SpectrumGame | PhysicalGame, variant: str) -> Callable[[Profile, int, int], bool]:
    """sgn(Phi(a') - Phi(a)) == sgn(U_user(a') - U_user(a)) for one game and
    variant, as a function of the deviation (a, user, new_channel) to a': the
    hypotheses are checked and the potential's constants bound once, each
    deviation's profiles checked per call."""
    check_hypotheses(game, variant)
    phi = _potential(game, variant)

    def matches(a: Profile, user: int, new_channel: int) -> bool:
        a2 = a[: user - 1] + (new_channel,) + a[user:]
        _check_profile(game, a)
        _check_profile(game, a2)
        phi0, phi1 = phi(a), phi(a2)
        u0 = game.payoff(a, user)
        u1 = game.payoff(a2, user)
        return signed(phi1 - phi0, (phi0, phi1)) == signed(u1 - u0, (u0, u1))

    return matches
