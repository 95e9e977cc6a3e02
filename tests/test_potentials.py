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
    deviation_checker,
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
        bandwidth=5.0, tx_power=(2.0,), own_distance=(1.0,),
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
        bandwidth=5.0, tx_power=(2.0,), own_distance=(1.0,),
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
        signs_match = deviation_checker(spec, variant)
        for a, n, m in _all_deviations(spec):
            assert signs_match(a, n, m), (variant, a, n, m)


@pytest.mark.parametrize("seed, instance", [(60, 32), (60, 62), (141, 46), (150, 3), (159, 99)])
def test_physical_deviation_signs_at_small_potentials(seed, instance):
    # physical potentials are about 3e-5: a dead band floored at an absolute
    # 1e-12 read real potential changes of that size as ties
    rng = np.random.default_rng(seed)
    for _ in range(instance + 1):
        game = random_physical_game(rng)
    signs_match = deviation_checker(game, "physical")
    for a, n, m in _all_deviations(game):
        assert signs_match(a, n, m), (a, n, m)


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


def _seeded_instance(variant):
    rng = np.random.default_rng(53 + VARIANTS.index(variant))
    if variant == "physical":
        return random_physical_game(rng)
    g = complete_undirected_graph(4) if variant == "backoff_complete" else random_undirected_graph(rng, 4, 0.7)
    kind = {"backoff_complete": "backoff", "backoff_asymptotic": "asymptotic", "weighted_share": "weighted",
            "homogeneous_backoff": "backoff", "aloha": "aloha"}[variant]
    return random_game(rng, g, 2, kind, gains=True, channel_rates=variant in ("backoff_asymptotic", "weighted_share"),
                       homogeneous=variant == "homogeneous_backoff")


# Phi at every profile (lexicographic) of _seeded_instance, as the closed forms
# evaluated it when each variant was a hand-written loop of its own
_RECORDED_POTENTIALS = {
    "backoff_complete": [
        -5.47264757718915, -2.1670755210927126, -2.0829294096304487, 0.06340573598144417,
        -0.6541425283210727, 1.4921926172908204, 1.5763387287530843, 2.7974268304687504,
        -1.0761488270341093, 1.0701863185777833, 1.1543324300400473, 2.375420531755714,
        2.5831193113494244, 3.8042074130650905, 3.8883535245273544, 3.9502047157584776],
    "backoff_asymptotic": [
        -1.5279526550056435, -1.4107547833362413, -1.4107547833362413, -1.9403353675002586,
        -1.4107547833362413, -1.9403353675002586, -1.9403353675002584, -3.116694407497695,
        -1.4107547833362413, -1.9403353675002586, -1.9403353675002584, -3.116694407497695,
        -1.9403353675002584, -3.116694407497695, -3.1166944074976954, -4.939831903328551],
    "weighted_share": [
        -23.943420605246995, -16.461359044756417, -16.518360597703488, -9.036299037212912,
        -9.075895050217499, -6.982075378472043, -7.656590436538347, -5.562770764792891,
        -22.565153650533517, -16.379042046720517, -15.140093642990012, -8.953982039177012,
        -7.697628095504022, -6.899758380436143, -6.278323481824871, -5.480453766756991],
    "homogeneous_backoff": [
        -3.65674929701824, -2.194049578210944, -2.194049578210944, -2.194049578210944,
        -2.925399437614592, -2.925399437614592, -1.462699718807296, -2.925399437614592,
        -2.925399437614592, -1.462699718807296, -2.925399437614592, -2.925399437614592,
        -2.194049578210944, -2.194049578210944, -2.194049578210944, -3.65674929701824],
    "aloha": [
        -3.3445358922835977, -0.4317109421813603, 1.8336577870801218, 1.8985337873822221,
        1.787272054279679, 2.6684268871938617, 2.726368486441081, 0.7595743695551251,
        -1.5997125801342107, 1.3131123699680272, 1.8600457507852441, 1.9249217510873442,
        2.306197779325594, 3.187352612239776, 1.5268588630427302, -0.4399352538432251],
    "physical": [
        -1.0257757660664541e-06, -8.877484337314743e-07, -6.117302597057953e-07, -1.068208725063607e-06,
        -7.838415462554369e-07, -8.422975486530613e-07, -3.8325723632505925e-07, -1.0362190364154753e-06,
        -9.236785184719822e-07, -7.957036703063994e-07, -5.157267218007079e-07, -9.822576713279167e-07,
        -6.85934545817598e-07, -7.544430323846198e-07, -2.9144394557660517e-07, -9.544582298364183e-07],
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_potential_values_match_the_recorded_closed_forms(variant):
    game = _seeded_instance(variant)
    profiles = list(itertools.product(range(1, game.n_channels + 1), repeat=game.n_users))
    assert [potential_value(game, a, variant) for a in profiles] == pytest.approx(
        _RECORDED_POTENTIALS[variant], rel=1e-12)


def test_every_variant_requires_positive_idle_probabilities():
    rng = np.random.default_rng(11)
    spec = random_game(rng, random_undirected_graph(rng, 3, 1.0), 2, "aloha")
    zero = sa.SpectrumGame.create(spec.graph, (0.0, 0.5), spec.mean_rate, spec.mechanism)
    with pytest.raises(PreconditionError, match="strictly positive"):
        check_hypotheses(zero, "aloha")
    phys = PhysicalGame(
        bandwidth=5.0, tx_power=(2.0,), own_distance=(1.0,),
        cross_distance=((0.0,),), path_loss=2.0, noise=0.5,
        primary_interference=((0.3, 0.1),), idle_prob=(0.0, 0.0),
    )
    with pytest.raises(PreconditionError, match="strictly positive"):
        check_hypotheses(phys, "physical")
