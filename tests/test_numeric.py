from lrcreal.numeric import gcd


def test_gcd_examples():
    assert gcd(12, 8) == 4
    assert gcd(0, 5) == 5
    assert gcd(7, 1) == 1
    assert gcd(0, 0) == 0
