"""Potential functions for the game classes that admit them.

Each variant couples a closed-form potential with the structural hypotheses
under which the sign of a unilateral potential change matches the sign of the
deviating user's payoff change. Hypotheses are validated, not trusted: every
theorem here has a narrow scope and silent misuse would be undetectable.

Variants:
  backoff_complete     complete undirected graph, finite-window random backoff,
                       fully user-specific rates. Returned as the log of the
                       product-form potential (a positive potential and its
                       log order deviations identically; the log form avoids
                       catastrophic cancellation at throughput scale).
  backoff_asymptotic   any undirected graph, infinite-window backoff,
                       channel-wise rates with per-user gains.
  weighted_share       any undirected graph, weight-proportional sharing,
                       channel-wise rates with per-user gains.
  homogeneous_backoff  any undirected graph, finite-window backoff, one theta
                       and one rate shared by every channel and user.
  aloha                any undirected graph, slotted Aloha, fully
                       user-specific rates.
  physical             SINR payoffs with accumulated interference and a
                       channel-independent idle probability.
"""

from __future__ import annotations

import math
from typing import Iterable

from .contention import AsymptoticBackoff, RandomBackoff, SlottedAloha, WeightedShare, backoff_success_probability
from .errors import PreconditionError
from .game import IMPROVEMENT_RTOL, PhysicalGame, Profile, SpectrumGame, _check_profile, channel_wise_rates, rates_agree
from .graph import classify

VARIANTS = (
    "backoff_complete",
    "backoff_asymptotic",
    "weighted_share",
    "homogeneous_backoff",
    "aloha",
    "physical",
)


def _require(cond: bool, variant: str, what: str) -> None:
    if not cond:
        raise PreconditionError(f"potential variant '{variant}' requires {what}")


def _positive_theta(spec: SpectrumGame) -> bool:
    return all(t > 0.0 for t in spec.idle_prob)


def check_hypotheses(game: SpectrumGame | PhysicalGame, variant: str) -> None:
    """Raise PreconditionError naming the violated hypothesis, if any."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown potential variant '{variant}'")
    if variant == "physical":
        _require(isinstance(game, PhysicalGame), variant, "a physical-interference game")
        _require(len(set(game.idle_prob)) == 1, variant, "homogeneous channel idle probabilities")
        return
    _require(isinstance(game, SpectrumGame), variant, "a graph-based spectrum game")
    cls = classify(game.graph)
    if variant == "backoff_complete":
        _require(cls.complete_undirected, variant, "a complete undirected interference graph")
        _require(isinstance(game.mechanism, RandomBackoff), variant, "the random backoff mechanism")
        _require(_positive_theta(game), variant, "strictly positive channel idle probabilities")
    elif variant == "backoff_asymptotic":
        _require(cls.undirected, variant, "an undirected interference graph")
        _require(isinstance(game.mechanism, AsymptoticBackoff), variant, "the asymptotic backoff mechanism")
        _require(channel_wise_rates(game), variant, "channel-wise rates (identical mean-rate rows; use gains for user specificity)")
        _require(_positive_theta(game), variant, "strictly positive channel idle probabilities")
    elif variant == "weighted_share":
        _require(cls.undirected, variant, "an undirected interference graph")
        _require(isinstance(game.mechanism, WeightedShare), variant, "the weighted sharing mechanism")
        _require(channel_wise_rates(game), variant, "channel-wise rates (identical mean-rate rows; use gains for user specificity)")
        _require(_positive_theta(game), variant, "strictly positive channel idle probabilities")
    elif variant == "homogeneous_backoff":
        _require(cls.undirected, variant, "an undirected interference graph")
        _require(isinstance(game.mechanism, RandomBackoff), variant, "the random backoff mechanism")
        _require(len(set(game.idle_prob)) == 1, variant, "homogeneous channel idle probabilities")
        _require(
            rates_agree(b for row in game.mean_rate for b in row), variant,
            "one mean rate shared by all users and channels (use gains for user specificity)",
        )
        _require(_positive_theta(game), variant, "strictly positive channel idle probabilities")
    elif variant == "aloha":
        _require(cls.undirected, variant, "an undirected interference graph")
        _require(isinstance(game.mechanism, SlottedAloha), variant, "the Aloha mechanism")
        _require(_positive_theta(game), variant, "strictly positive channel idle probabilities")


def applicable_variants(game: SpectrumGame | PhysicalGame) -> list[str]:
    out = []
    for v in VARIANTS:
        try:
            check_hypotheses(game, v)
        except PreconditionError:
            continue
        out.append(v)
    return out


def _channel_loads(game, a: Profile) -> list[int]:
    loads = [0] * game.n_channels
    for ch in a:
        loads[ch - 1] += 1
    return loads


def potential_value(game: SpectrumGame | PhysicalGame, a: Profile, variant: str) -> float:
    """Evaluate the variant's potential at profile a (hypotheses enforced)."""
    check_hypotheses(game, variant)
    _check_profile(game, a)

    if variant == "physical":
        alpha = game.path_loss
        pair = 0.0
        for i in range(1, game.n_users + 1):
            for j in range(1, game.n_users + 1):
                if i != j and a[i - 1] == a[j - 1]:
                    pair += (
                        game.tx_power[i - 1]
                        * game.tx_power[j - 1]
                        * game.cross_distance[i - 1][j - 1] ** (-alpha)
                    )
        primary = sum(
            2.0 * game.tx_power[n - 1] * (game.primary_interference[n - 1][a[n - 1] - 1] + game.noise)
            for n in range(1, game.n_users + 1)
        )
        return -pair - primary

    spec: SpectrumGame = game
    if variant == "backoff_complete":
        # log of prod_n theta h B * prod_m prod_{c=0}^{K_m - 1} f(c); the
        # per-channel product telescopes exactly against one user's move.
        lam = spec.mechanism.max_counter
        val = sum(
            math.log(spec._value.item(n - 1, a[n - 1] - 1))
            for n in range(1, spec.n_users + 1)
        )
        for load in _channel_loads(spec, a):
            for c in range(load):
                val += math.log(backoff_success_probability(lam, c))
        return val

    if variant == "backoff_asymptotic":
        base = spec.mean_rate[0]
        return -sum(
            (1.0 + 0.5 * len(spec.co_channel_in_neighbors(a, n)))
            / (spec.idle_prob[a[n - 1] - 1] * base[a[n - 1] - 1])
            for n in range(1, spec.n_users + 1)
        )

    if variant == "weighted_share":
        base = spec.mean_rate[0]
        w = spec.mechanism.weights
        total = 0.0
        for n in range(1, spec.n_users + 1):
            cross = sum(w[i - 1] for i in spec.co_channel_in_neighbors(a, n))
            total -= (w[n - 1] ** 2 + 0.5 * w[n - 1] * cross) / (
                spec.idle_prob[a[n - 1] - 1] * base[a[n - 1] - 1]
            )
        return total

    if variant == "homogeneous_backoff":
        theta_b = spec.idle_prob[0] * spec.mean_rate[0][0]
        return -sum(
            (1.0 + len(spec.co_channel_in_neighbors(a, n))) / theta_b
            for n in range(1, spec.n_users + 1)
        )

    if variant == "aloha":
        p = spec.mechanism.probs
        rho = [math.log(1.0 - pi) for pi in p]
        total = 0.0
        for i in range(1, spec.n_users + 1):
            ch = a[i - 1]
            cross = sum(rho[j - 1] for j in spec.co_channel_in_neighbors(a, i))
            xi = math.log(spec._value.item(i - 1, ch - 1) * p[i - 1])
            total -= rho[i - 1] * (0.5 * cross + xi)
        return total

    raise ValueError(f"unknown potential variant '{variant}'")


def signed(delta: float, reference: Iterable[float]) -> int:
    """Sign of delta with a dead band of IMPROVEMENT_RTOL times the largest
    reference magnitude, relative at every scale as in strictly_better: for
    non-negative payoffs, signed(new - old, (new, old)) == 1 exactly when
    strictly_better(new, old)."""
    scale = max((abs(r) for r in reference), default=0.0)
    if abs(delta) <= IMPROVEMENT_RTOL * scale:
        return 0
    return 1 if delta > 0 else -1


def deviation_signs_match(
    game: SpectrumGame | PhysicalGame,
    variant: str,
    a: Profile,
    user: int,
    new_channel: int,
) -> bool:
    """sgn(Phi(a') - Phi(a)) == sgn(U_user(a') - U_user(a)) for one deviation."""
    a2 = a[: user - 1] + (new_channel,) + a[user:]
    phi0 = potential_value(game, a, variant)
    phi1 = potential_value(game, a2, variant)
    u0 = game.payoff(a, user)
    u1 = game.payoff(a2, user)
    return signed(phi1 - phi0, (phi0, phi1)) == signed(u1 - u0, (u0, u1))
