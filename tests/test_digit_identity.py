"""Digit identity: the engine's output is pinned to recorded digests.

For 50 random in-range states over seeded periodic L/R/C inputs, the
sha256 of the first 300 produced digits must match the digests recorded
from the nine-row consumption table engine, both for an engine node,
which normalizes every step, and for the step-at-a-time reference with
normalization off. Any rewrite of the engine that changes a single digit
fails here, and the inputs reach every one of the nine consumption digit
pairs.
"""

import hashlib
import itertools
import random
from fractions import Fraction

from helpers import DIGITS, rand_state, reference_digits
import lrcreal.engine as engine_module
from lrcreal.streams import take

DIGESTS = (
    "22cb06ce7f13fdb76e625d3a0790f1d6254dfdd50a3f672422fddce1c609ef16",
    "2e0bc3443f8799e04c9eca14052f81306b8e59d15078321bddfd9f7ed2739aa2",
    "f5644d86509a3b3d33bb4bb389461d91c32db22c6e02f4fbf27c684b9d36b058",
    "8ee9b0285bd08b7ca1afd5fc7d255642d09ff317598a4f22832d107e56769cbb",
    "ad24ad32fa3d739305adc9a6789d5bd1f4c0346710f683f261b10ffeca1ec3d8",
    "c5065eb0aecf16b5bacb4c1e0eddf8342c95f414baeab567538eaa8dbf0dcfe5",
    "62c4aba9479e66442f7613b6948b177b977bf0bbb273d63b66e57ba06546b72d",
    "1d59575f7ed545184624402e72140b5dcfd7c2be0340d6c4293258412e557180",
    "d8fcf2804012c2b793657ba6eef4a788fa66ff61fb6dcc7d82a83e9a723849bc",
    "439090a63e407ff3b6daa348b2fbaeaeeea6626fa378d597ef59da5968dfdb1d",
    "1cf880e5f584cf15742f70f60f7e60b193007d357b0b865efbe5ffe038ac2c7d",
    "8e21a7cba2fe2cfd4144273b88e848ad7ef039f7b741c0cf00da585aaa6495b7",
    "f433078c13715913fb0fcdde66313e6396632340273085d5279977b01adf29c4",
    "d7c551c3edd8f05e7def447131357645c63bbb6e2eb8ba1b81d33c1b9b8179ee",
    "65e17b093c30a01c592bc860ee929f37dfa7ce62bdc592f6675ac1e277e44771",
    "7381ddebadec5613199473c59477b4cf8c3942aad5cae37f6d1999fa9a43532d",
    "0d5c393dc32a8bb50a85cb5b199db1c56ff7d76d214697bff38df65d3f3c7a0e",
    "f5e5b1294793e02a2769950ff74afa52545ba6fe9c30d891eff4359176844d2c",
    "2f7f16806dc5eb8f8f1d1a4ba0b9f8025a94217c9718257f703eca65fe1cfbcd",
    "748838d1ffc25a4b9c51d46531cb8f7d3b3e06453d5bc6262c3549a34065ed24",
    "0ec9d4b043e2271765676e0727dcffa846f40426bee585a38ff0b017976e1c9e",
    "eb164cab323c5146cfd9a76fb3681551e1d9cf5be0690eea8c7dac2161cebfc0",
    "288b8ecca8ce034f72db9b3d7783fbc216082e66999ac048425365c3b4c8722b",
    "5c54c3d6ae84ad3a5229bdd35ace2069814e6e98eaeaec78ed4fc92031903c7b",
    "a9b70eacf5f3500f7352a9e11af7352ab2a8004d7ca560592bbf906ef0fc22f1",
    "7c7cc938f4745705e0b37d338c924ebf4ca1976a7b34d0eecc8ef0436336a5b1",
    "6213f1f84a3577e4df5e73462b52365d89e0f23e69aa5b5acc0856b53f0e68f2",
    "3c996ae658ab6cc0b86932b2b0d63cfa9ffda7ba722c7b0920de24801de9685a",
    "6bb8a7b10ca3bf8baf25eca2651849daa9f50e52bcb5a39424520876e4da393f",
    "329f1c6ac6524f7db42544b607db98e9fc4a5eef2f2ae99b2b1e0129945397e9",
    "7ddbd867d91068f9f3012bb46a37128a94ded2d445513daf6c7d7e8ff648b878",
    "b648119041c349107a0ca4e4359a6ec1fdbeab160bfaf9ba988b86a4585a0c96",
    "d1ab9a07b3ce0810c9acfbe0e8a4ec550b285a8ef6c170ba19054fce2ca485d9",
    "1ddfe47179814c83e26b8ebc187646a2bdd0bb759b3fedce67cfe9e696907a62",
    "3976cb77e80a6c1c743f88c5ad916a6e93b3d49fb7607e1a7220dfd6ae537026",
    "d7d9d2184c5fc36150210d5d704b196d616e5a7eb7f39ca39820a2960257c527",
    "2dae2ed36f07b3e15c98582f888eff6347ec6e459d0879bf44f3d6f806fd6d61",
    "dd34a68b213cb2a85255db6e34a9115abe71e34faa4a17fe3aafa790d1c10cf3",
    "28dbc87e0dd28af53dcf0efd5fa209988f39025a48eae5500907c9f5df60641f",
    "20cef89ee2111e70d711cb530d450ee546556b74b5dd14235ec9c357fdd52faf",
    "3c44cac608b4d8961a92d0be08ac383f3522e0affd0278da24bbc4db8a3d3a39",
    "2afa0bbd64802067540ef9bced237c216a2e70637d57f3cc896410773b3ff514",
    "753606e9457293281b5daf7e348f3d31e89950786a41a431605b4e758ffcd512",
    "836f8fe612b06cfc07e9794b71b8cb4d1af3e1a212a385365ef186facef9ac9c",
    "9581346d157978d383008af41e18ed3130808d4f8cf81cfac699cb6b61621956",
    "936fbcd2e8bd5dd6eecff2f2704ff2cc0b2c1a4a8b07a7910406a761d849322c",
    "1a0f60ebe2a97c51bea1f2c966265f5baacb7a9d87c7fd06f6520be5cdf8b75f",
    "cc0f4fbb952d2a97b19eb99a6fda80d0f892905a4b52bf52eb81448d24073a26",
    "ae44106a2fcc5d722ea09cd2883bfbc2825d32c55e13a9c273d523fc0987ee03",
    "f7d4c7a747f8debe98539d160c5725aedf6f88acee19b2320146ab8f8bb06f86",
)


def in_range_states(seed, count):
    """The first ``count`` random states whose value is in [0, 1] for all inputs."""
    rng = random.Random(seed)
    states = []
    while len(states) < count:
        x = rand_state(rng)
        if Fraction(x.a, x.a_den) + Fraction(x.b, x.b_den) + Fraction(x.c, x.c_den) <= 1:
            states.append(x)
    return states


def test_produced_digits_match_pinned_digests(monkeypatch):
    seen = set()
    carry = engine_module._carry

    def recording(d1, d2, A, B, C):
        seen.add((d1, d2))
        return carry(d1, d2, A, B, C)

    monkeypatch.setattr(engine_module, "_carry", recording)
    states = in_range_states(2024, len(DIGESTS))
    for i, (x, expected) in enumerate(zip(states, DIGESTS)):
        runs = {
            "node": take(engine_module.produce_stream(x), 300),
            "unnormalized reference": reference_digits(x, 300, normalize_steps=False),
        }
        for run, digits in runs.items():
            text = "".join(str(d) for d in digits)
            got = hashlib.sha256(text.encode()).hexdigest()
            assert got == expected, "state %d %r, %s" % (i, x, run)
    assert seen == set(itertools.product(DIGITS, DIGITS))
