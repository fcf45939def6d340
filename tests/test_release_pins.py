"""Noisy releases pinned bit for bit at small versions of the benchmark shapes.

Each case runs through the public API with noise on under ``NoiseContext(7)``
and hashes every release, as float64 bytes, in the order the loop reads them.
A change that moves one bit of one release fails here.  The pinned digests
change only with a change that moves the noise on purpose; such a change
re-pins them and says why.
"""

import hashlib
import math
import struct

import pytest

from dpsketch import (
    GroupingMechanism,
    L2Config,
    L2Estimator,
    MomentConfig,
    NoiseContext,
    SmallUniverseDistinct,
    SmoothnessParams,
    StreamConfig,
    generate_stream,
    moment_estimator,
    window_estimator,
)
from dpsketch.cli import STREAMING, _csv_line, command_params, drive
from dpsketch.sliding import default_max_live
from dpsketch.summing import GROUP, summing_guarantee

NOISE_SEED = 7


def _stream(T, n):
    return generate_stream("zipf", StreamConfig(T=T, n=n), 1, s=1.2)


def _digest(releases):
    h = hashlib.blake2b(digest_size=16)
    for value in releases:
        h.update(struct.pack("<d", value))
    return h.hexdigest()


def moment_releases(T=512):
    # moment-tick: three copies read every tick
    cfg = MomentConfig(p=2, epsilon=1.0, eta=0.25, xi=0.1, T=T, n=1024, copies=3)
    est = moment_estimator(cfg, NoiseContext(NOISE_SEED))
    out = []
    for e in _stream(T, 1024):
        est.ingest(e)
        out.append(est.current())
    return out


def f2_releases(T=128):
    # f2-wide: three copies of 512 buckets, f2 and a point query every tick
    cfg = L2Config(epsilon=1.0, eta=0.2, xi=0.1, n=4096, T=T, copies=3, buckets=512)
    est = L2Estimator(cfg, NoiseContext(NOISE_SEED))
    out = []
    for e in _stream(T, 4096):
        est.feed(e)
        out.append(est.f2())
        out.append(est.point_query(0))
    return out


def window_releases(T=2048):
    # window-distinct: small-universe distinct instances on grouping counters.
    # At the benchmark's epsilon = 8 every grouping counter stays below its
    # threshold and every release is 0 (the grouping backend at small T), so
    # the pin runs at epsilon = 10^6, where the counters release noisy values
    W, epsilon, eta, xi, n = 64, 1e6, 0.1, 0.1, 256
    ctx = NoiseContext(NOISE_SEED)
    params = SmoothnessParams.for_moment(0.0, eta)
    eps_instance = epsilon / default_max_live(T, params.beta)

    def grouping(horizon, eps, child):
        return GroupingMechanism(horizon, eps / 5, eta, xi, child)

    def inner(start_t, eps):
        return SmallUniverseDistinct(n, grouping(T - start_t + 1, eps, ctx.child("sliding", start_t)))

    gamma = summing_guarantee(GROUP, T, eps_instance / 5, eta, xi, False)[1]
    hist, _ = window_estimator(inner, params, W, T, epsilon, inner_alpha=1.0 + eta,
                               inner_gamma=gamma)
    return [hist.feed(e) for e in _stream(T, n)]


# blake2b-128 of every release, taken before blocks of tree rows were drawn
# ahead; the moment and f2 runs read their banks at every tick
PINS = {
    "moment": "be50623fd9658ee03f1cb4e110f96b58",
    "f2": "f47bc689417c9fc912a1d1c3fc9c4532",
    "window": "1a6048c8026b043f633d8d9c3284d0ad",
}


def _noisy(releases):
    # the share of releases that carry noise: not a whole number
    return sum(not float(v).is_integer() for v in releases) / len(releases)


def test_moment_releases_are_pinned():
    releases = moment_releases()
    assert len(releases) == 512 and all(map(math.isfinite, releases))
    assert _noisy(releases) > 0.9
    assert _digest(releases) == PINS["moment"]


def test_f2_releases_are_pinned():
    releases = f2_releases()
    assert len(releases) == 2 * 128 and all(map(math.isfinite, releases))
    assert _noisy(releases) > 0.9
    assert _digest(releases) == PINS["f2"]


def test_window_releases_are_pinned():
    releases = window_releases()
    assert len(releases) == 2048 and all(map(math.isfinite, releases))
    assert _noisy(releases) > 0.9
    assert _digest(releases) == PINS["window"]


# The CLI matrix: every streaming subcommand at T = 512 on a zipf stream over
# n = 64, epsilon = 8 and 3 copies where it takes --copies, other flags at
# their defaults.  Each CSV is hashed as the CLI writes it.
MATRIX = {
    "sum-tree": ("sum", dict(mechanism="tree")),
    "sum-group": ("sum", dict(mechanism="group")),
    "distinct-tree": ("distinct", dict(variant="tree")),
    "distinct-group": ("distinct", dict(variant="group")),
    "distinct-general": ("distinct", dict(universe="general", copies=3)),
    "f2": ("f2", dict(copies=3)),
    "heavy-hitters": ("heavy-hitters", dict(p=2.0, k=4, copies=3)),
    "low-freq": ("low-freq", dict(k=4, copies=3)),
    "moment": ("moment", dict(p=2.0, copies=3)),
    "moment-tau": ("moment", dict(p=2.0, tau=4.0, copies=3)),
    "sliding-sum": ("sliding", dict(stat="sum", W=64)),
    "sliding-distinct": ("sliding", dict(stat="distinct", W=64)),
    "sliding-f2": ("sliding", dict(stat="f2", W=64)),
    "sliding-moment": ("sliding", dict(stat="moment", W=64, p=2.0)),
}

# At this shape every grouping counter stays below its threshold, so these
# release 0 at every tick with noise on as with it off (ROADMAP items 11, 14)
RELEASE_ZERO = {"distinct-group", "distinct-general", "sliding-sum", "sliding-distinct"}

# blake2b-128 of each CSV per noise seed, (noise on, noise off), taken before
# one builder assembled every boosted estimator
CLI_PINS = {
    "sum-tree": {
        1: ("c8c3a0a2f57e6cec52e42be2cec9aabb", "fa888297bae502097b4ec9c1b10185e4"),
        99: ("abb1ed34b6b74947751ab29df3f1d6f4", "fa888297bae502097b4ec9c1b10185e4"),
    },
    "sum-group": {
        1: ("3a29b3165a9bacb75e434c8da4350fb0", "424be561fb0d9c69507c9849ed454e15"),
        99: ("dcb7973eff15f3f5e1065ec0d7cb77c3", "424be561fb0d9c69507c9849ed454e15"),
    },
    "distinct-tree": {
        1: ("49f2622ca60aad3697ad9713a38fbcfc", "a439e2fae26e9cf3f5b66d0627392fb5"),
        99: ("5b470237498d552ff9ee0d8c546090db", "a439e2fae26e9cf3f5b66d0627392fb5"),
    },
    "distinct-group": {
        1: ("e1f4e0a1c6bd6830b2061ea377c8172d", "e1f4e0a1c6bd6830b2061ea377c8172d"),
        99: ("e1f4e0a1c6bd6830b2061ea377c8172d", "e1f4e0a1c6bd6830b2061ea377c8172d"),
    },
    "distinct-general": {
        1: ("e1f4e0a1c6bd6830b2061ea377c8172d", "e1f4e0a1c6bd6830b2061ea377c8172d"),
        99: ("e1f4e0a1c6bd6830b2061ea377c8172d", "e1f4e0a1c6bd6830b2061ea377c8172d"),
    },
    "f2": {
        1: ("6d1f257adecb68718d2617bdbfa87a8a", "1376519854f885c68bd96e6aa6fe838b"),
        99: ("421f3ceea249200799aa35e4320aa66b", "1376519854f885c68bd96e6aa6fe838b"),
    },
    "heavy-hitters": {
        1: ("500cfbd829d94a5cf572ef34df81e634", "c245cbe87ef1ecca1a1ea50e776cf5fe"),
        99: ("a9514c56a33b3b263f58e500e9601cdf", "c245cbe87ef1ecca1a1ea50e776cf5fe"),
    },
    "low-freq": {
        1: ("a9d25cdf1eecfbb1c85b6c0b2194407f", "78995d972c924bd786855d6d6373c274"),
        99: ("71210c8746a0a42f80396ad52b83de17", "78995d972c924bd786855d6d6373c274"),
    },
    "moment": {
        1: ("f80b39663086a5db58718eded8be6936", "e87892ea9786136be059dd0811c3761e"),
        99: ("484890a3de506901764b69d096f9b1e4", "e87892ea9786136be059dd0811c3761e"),
    },
    "moment-tau": {
        1: ("c5bcbdcf7a842741b0cde48712b3c836", "7ac51a3c07a5b225875e9119c7a2dca3"),
        99: ("353c1b22eb0ffd5bd771647232f7ef84", "7ac51a3c07a5b225875e9119c7a2dca3"),
    },
    "sliding-sum": {
        1: ("dbc69da86c83f4d1eaec5d74b12b9195", "dbc69da86c83f4d1eaec5d74b12b9195"),
        99: ("dbc69da86c83f4d1eaec5d74b12b9195", "dbc69da86c83f4d1eaec5d74b12b9195"),
    },
    "sliding-distinct": {
        1: ("327acab661afd7aad3bb3cfcc04f0ce0", "327acab661afd7aad3bb3cfcc04f0ce0"),
        99: ("327acab661afd7aad3bb3cfcc04f0ce0", "327acab661afd7aad3bb3cfcc04f0ce0"),
    },
    "sliding-f2": {
        1: ("6dda9440326fc33a1c1697b8faf8e0fd", "f7a91bf24086c55a36a6c6e806531a13"),
        99: ("debea7b5161f18434fa74851e100d6fb", "d0ad6e2b300c473946ea98ee6cdeeeb8"),
    },
    "sliding-moment": {
        1: ("488163bf6c16af4ef9f327349e5f3d91", "0e89b247f61389ad7750b02f33ac06fa"),
        99: ("640b168a2628c4c2446c92ede3a89e99", "0e89b247f61389ad7750b02f33ac06fa"),
    },
}


def cli_csv(case, seed, noise_off):
    name, flags = MATRIX[case]
    params = command_params(name, epsilon=8.0, T=512, n=64, **flags)
    events = generate_stream("zipf", StreamConfig(T=512, n=64), 1)
    _, rows = drive(name, params, events, NoiseContext(seed, noise_off=noise_off))
    return "\n".join([STREAMING[name].header] + [_csv_line(r) for r in rows]) + "\n"


@pytest.mark.parametrize("seed", [1, 99])
@pytest.mark.parametrize("case", list(MATRIX))
def test_cli_csvs_are_pinned(case, seed):
    on, off = (cli_csv(case, seed, noise_off) for noise_off in (False, True))
    assert (on == off) == (case in RELEASE_ZERO)
    digests = tuple(hashlib.blake2b(csv.encode(), digest_size=16).hexdigest() for csv in (on, off))
    assert digests == CLI_PINS[case][seed]
