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
from dpsketch.sliding import default_max_live

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

    gamma = grouping(T, eps_instance, ctx.child("probe")).error_bound()
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
