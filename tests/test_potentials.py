import itertools
import math
import zlib

import numpy as np
import pytest
from conftest import complete_undirected_graph, random_game, random_physical_game, random_undirected_graph

import specaccess as sa
from specaccess.contention import backoff_success_probability
from specaccess.errors import PreconditionError
from specaccess.game import PhysicalGame, better_response_dynamics
from specaccess.potentials import (
    VARIANTS,
    applicable_variants,
    check_hypotheses,
    deviation_signs_match,
    potential_value,
)


def _all_deviations(game):
    for a in itertools.product(range(1, game.n_channels + 1), repeat=game.n_users):
        for n in range(1, game.n_users + 1):
            for m in range(1, game.n_channels + 1):
                if m != a[n - 1]:
                    yield a, n, m


def test_hypothesis_violations_are_named():
    rng = np.random.default_rng(0)
    ring = sa.InterferenceGraph.undirected(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
    spec = random_game(rng, ring, 2, "backoff")
    with pytest.raises(PreconditionError, match="complete undirected"):
        check_hypotheses(spec, "backoff_complete")
    with pytest.raises(PreconditionError, match="asymptotic backoff"):
        check_hypotheses(spec, "backoff_asymptotic")
    with pytest.raises(PreconditionError, match="Aloha"):
        check_hypotheses(spec, "aloha")
    directed = sa.InterferenceGraph.from_edges(3, [(1, 2)])
    dspec = random_game(rng, directed, 2, "aloha")
    with pytest.raises(PreconditionError, match="undirected"):
        check_hypotheses(dspec, "aloha")
    with pytest.raises(ValueError, match="unknown"):
        potential_value(spec, (1, 1, 1, 1), "nonsense")


def test_user_specific_rates_rejected_where_channel_rates_required():
    rng = np.random.default_rng(1)
    g = random_undirected_graph(rng, 3, 1.0)
    spec = sa.SpectrumGame.create(
        g, [0.5, 0.5], [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], sa.AsymptoticBackoff()
    )
    with pytest.raises(PreconditionError, match="channel-wise"):
        check_hypotheses(spec, "backoff_asymptotic")


def test_weighted_with_unit_weights_matches_asymptotic_formula():
    rng = np.random.default_rng(2)
    g = random_undirected_graph(rng, 4, 0.6)
    theta = rng.uniform(0.2, 1.0, 3)
    B = np.tile(rng.uniform(1.0, 9.0, 3), (4, 1))
    w = sa.SpectrumGame.create(g, theta, B, sa.WeightedShare((1.0,) * 4))
    eq = sa.SpectrumGame.create(g, theta, B, sa.AsymptoticBackoff())
    for a in itertools.product((1, 2, 3), repeat=4):
        assert potential_value(w, a, "weighted_share") == pytest.approx(
            potential_value(eq, a, "backoff_asymptotic"), rel=1e-12
        )


def test_complete_backoff_log_form_matches_product_oracle():
    rng = np.random.default_rng(3)
    g = complete_undirected_graph(3)
    spec = random_game(rng, g, 2, "backoff")
    lam = spec.mechanism.max_counter
    for a in itertools.product((1, 2), repeat=3):
        # literal product form: prod_n theta*B*h * prod_m prod_{c=0}^{K_m - 1} f(c)
        prod = 1.0
        for n in (1, 2, 3):
            prod *= spec._value.item(n - 1, a[n - 1] - 1)
        for m in (1, 2):
            k = sum(1 for ch in a if ch == m)
            for c in range(k):
                prod *= backoff_success_probability(lam, c)
        assert potential_value(spec, a, "backoff_complete") == pytest.approx(math.log(prod), rel=1e-12)


def test_physical_single_user_formula():
    phys = PhysicalGame(
        n_channels=3, bandwidth=5.0, tx_power=(2.0,), own_distance=(1.0,),
        cross_distance=((0.0,),), path_loss=2.0, noise=0.5,
        primary_interference=((0.3, 0.1, 0.7),), idle_prob=(0.5, 0.5, 0.5),
    )
    for ch in (1, 2, 3):
        expect = -2.0 * 2.0 * (phys.primary_interference[0][ch - 1] + 0.5)
        assert potential_value(phys, (ch,), "physical") == pytest.approx(expect)
    # maximised on the channel with the least primary interference
    best = max((1, 2, 3), key=lambda ch: potential_value(phys, (ch,), "physical"))
    assert best == 2


def test_physical_requires_homogeneous_theta():
    phys = PhysicalGame(
        n_channels=2, bandwidth=5.0, tx_power=(2.0,), own_distance=(1.0,),
        cross_distance=((0.0,),), path_loss=2.0, noise=0.5,
        primary_interference=((0.3, 0.1),), idle_prob=(0.5, 0.6),
    )
    with pytest.raises(PreconditionError, match="homogeneous"):
        potential_value(phys, (1,), "physical")


def _in_hypothesis_instance(rng, variant):
    n = int(rng.integers(3, 5))
    m = int(rng.integers(2, 4))
    if variant == "backoff_complete":
        return random_game(rng, complete_undirected_graph(n), m, "backoff", gains=True)
    g = random_undirected_graph(rng, n, 0.6)
    if variant == "backoff_asymptotic":
        return random_game(rng, g, m, "asymptotic", gains=True, channel_rates=True)
    if variant == "weighted_share":
        return random_game(rng, g, m, "weighted", gains=True, channel_rates=True)
    if variant == "homogeneous_backoff":
        return random_game(rng, g, m, "backoff", gains=True, homogeneous=True)
    if variant == "aloha":
        return random_game(rng, g, m, "aloha", gains=True)
    raise ValueError(variant)


@pytest.mark.parametrize("variant", [v for v in VARIANTS if v != "physical"])
def test_deviation_sign_identity(variant):
    rng = np.random.default_rng(zlib.crc32(variant.encode()))
    for _ in range(10):
        spec = _in_hypothesis_instance(rng, variant)
        for a, n, m in _all_deviations(spec):
            assert deviation_signs_match(spec, variant, a, n, m), (variant, a, n, m)


@pytest.mark.parametrize("seed, instance", [(60, 32), (60, 62), (141, 46), (150, 3), (159, 99)])
def test_physical_deviation_signs_at_small_potentials(seed, instance):
    # physical potentials are about 3e-5: a dead band floored at an absolute
    # 1e-12 read real potential changes of that size as ties
    rng = np.random.default_rng(seed)
    for _ in range(instance + 1):
        game = random_physical_game(rng)
    for a, n, m in _all_deviations(game):
        assert deviation_signs_match(game, "physical", a, n, m), (a, n, m)


def test_applicable_variants_reporting():
    rng = np.random.default_rng(9)
    spec = random_game(rng, complete_undirected_graph(3), 2, "backoff", homogeneous=True)
    found = applicable_variants(spec)
    assert "backoff_complete" in found and "homogeneous_backoff" in found


def test_fip_strict_potential_increase():
    rng = np.random.default_rng(14)
    for variant, kind in (("backoff_asymptotic", "asymptotic"), ("weighted_share", "weighted"), ("aloha", "aloha")):
        g = random_undirected_graph(rng, 4, 0.6)
        spec = random_game(rng, g, 2, kind, channel_rates=(variant != "aloha"))
        start = tuple(int(c) for c in rng.integers(1, 3, size=4))
        res = better_response_dynamics(spec, start)
        assert res.converged
        # replay the move sequence and require a strict potential increase per step
        a = list(start)
        for step in res.steps:
            before = potential_value(spec, tuple(a), variant)
            a[step.user - 1] = step.new_channel
            after = potential_value(spec, tuple(a), variant)
            assert after > before
        assert tuple(a) == res.profile
