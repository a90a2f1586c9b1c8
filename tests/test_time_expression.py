import math

from hypothesis import given, settings
from hypothesis import strategies as st

from rydpack.cli import UsageError, parse_time_expression

TCL = 100.0
TREV = 1000.0

numbers = st.one_of(
    st.integers(0, 10**6).map(str),
    st.floats(0.0, 1e300, allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["0", "0.0", "1e308", "5e-324", "1" + "0" * 400]),
)
symbols = st.sampled_from(["Tcl", "tcl", "TCL", "trev", "Trev", "ns", "ps", "au", "NS"])


def _compound(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*/"), children).map(" ".join),
        st.tuples(st.sampled_from("+-"), children).map("".join),
        children.map("({})".format),
    )


expressions = st.recursive(numbers | symbols, _compound, max_leaves=12)


@settings(max_examples=80, deadline=None)
@given(expressions)
def test_time_expression_gives_finite_float_or_usage_error(expr):
    try:
        value = parse_time_expression(expr, TCL, TREV)
    except UsageError:
        return
    assert type(value) is float and math.isfinite(value), (expr, value)
