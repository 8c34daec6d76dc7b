"""Exact real arithmetic on [0, 1] with lazy streams of L/R/C interval digits.

Reals are infinite digit streams refining nested intervals; every finite
prefix yields an exact rational enclosure, and an exact rational oracle
can re-check every step of every computation.
"""

from .digits import (
    Digit,
    Interval,
    UNIT,
    bit_to_digit,
    bits_to_value,
    digits_to_str,
    emit_value,
    prefix_interval,
    refine,
    represents_to_depth,
    str_to_digits,
)
from .engine import (
    AffineData,
    Decision,
    consume,
    decide,
    measure,
    normalize,
    prod_C,
    prod_L,
    prod_R,
    produce_stream,
    state_value,
)
from .errors import DomainError, ExprParseError
from .reals import (
    GREATER,
    LESS,
    ExactReal,
    Indistinguishable,
    affine,
    average,
    compare,
    from_rational,
)
from .streams import (
    LazyList,
    NIL,
    Stream,
    bisimilar_to_depth,
    cons,
    constant,
    decompose,
    fib_stream,
    from_list,
    head,
    map_lazy,
    map_stream,
    tail,
    take,
    unfold,
)

__version__ = "0.1.0"
