import locale
import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agecost import (
    ArrivalSequence,
    BernoulliSource,
    EmptyTrace,
    InvalidRate,
    ParseError,
    empirical_rate,
    generate_bernoulli,
    load_trace,
)

from agecost.arrivals import _DRAW_CHUNK, make_rng
from oracles import make_trace, reference_load_trace


def test_rate_one_fills_every_slot():
    seq = generate_bernoulli(BernoulliSource(1.0, 123), horizon=5)
    assert seq.slots.tolist() == [1, 2, 3, 4, 5]
    assert seq.n_requests == 5
    byc = generate_bernoulli(BernoulliSource(1.0, 123), n_requests=5)
    assert byc.slots.tolist() == [1, 2, 3, 4, 5]


def test_determinism():
    src = BernoulliSource(0.5, 7)
    a = generate_bernoulli(src, horizon=100)
    b = generate_bernoulli(src, horizon=100)
    assert np.array_equal(a.slots, b.slots)
    c = generate_bernoulli(src, n_requests=50)
    d = generate_bernoulli(src, n_requests=50)
    assert np.array_equal(c.slots, d.slots)
    assert not np.array_equal(
        a.slots, generate_bernoulli(BernoulliSource(0.5, 8), horizon=100).slots
    )


def test_horizon_draw_in_chunks_matches_one_draw():
    horizon = 2 * _DRAW_CHUNK + 12_345  # three chunks, the last one short
    seq = generate_bernoulli(BernoulliSource(0.3, 8), horizon=horizon)
    assert np.array_equal(seq.slots, np.nonzero(make_rng(8).random(horizon) < 0.3)[0] + 1)


def test_stop_by_count():
    seq = generate_bernoulli(BernoulliSource(0.3, 21), n_requests=500)
    assert seq.n_requests == 500
    assert seq.horizon == int(seq.slots[-1])


def test_empirical_rate_concentration():
    seq = generate_bernoulli(BernoulliSource(0.5, 7), n_requests=10_000)
    assert 0.48 <= empirical_rate(seq) <= 0.52
    big = generate_bernoulli(BernoulliSource(0.3, 5), horizon=10**6)
    assert 0.29 <= empirical_rate(big) <= 0.31


def test_empirical_rate_exact_cases():
    assert empirical_rate(ArrivalSequence.from_slots(range(1, 11))) == 1.0
    assert empirical_rate(ArrivalSequence.from_slots([2, 4], horizon=10)) == 0.2


def test_invalid_rates():
    for bad in (0.0, -0.1, 1.2):
        with pytest.raises(InvalidRate):
            BernoulliSource(bad, 1)


def test_stop_argument_validation():
    src = BernoulliSource(0.5, 1)
    with pytest.raises(ValueError):
        generate_bernoulli(src)
    with pytest.raises(ValueError):
        generate_bernoulli(src, horizon=10, n_requests=10)


def test_load_trace_floor_arithmetic(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("0.0\n1.2,extra,fields\n1.9\n")
    seq = load_trace(path, 1.0)
    assert seq.slots.tolist() == [1, 2]
    assert seq.counts.tolist() == [1, 2]
    assert seq.n_requests == 3
    assert seq.horizon == 2


def test_load_trace_shifts_origin(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("5.0\n")
    seq = load_trace(path, 0.25)
    assert seq.slots.tolist() == [1]


def test_load_trace_malformed(tmp_path, caplog):
    # nan and +-inf parse as floats but name no slot, so they are malformed too.
    path = tmp_path / "t.csv"
    for bad in ("not-a-number", "nan", "inf", "-inf"):
        path.write_text(f"1.0\n{bad},foo\n2.0\n")
        with pytest.raises(ParseError) as err:
            load_trace(path, 1.0)
        assert err.value.line_no == 2
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            seq = load_trace(path, 1.0, on_malformed="skip")
        assert seq.slots.tolist() == [1, 2]
        assert seq.n_requests == 2
        assert "line 2" in caplog.text
        assert "skipped 1 malformed lines" in caplog.text


def test_load_trace_span_beyond_int64(tmp_path):
    # The first span overflows float64 itself; the second fits in float64
    # but needs ~9e21 slots at this slot duration.
    path = tmp_path / "t.csv"
    for lines, slot_duration in ((("1e308", "-1e308"), 1.0), (("0", "9e18"), 1e-3)):
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="span .*slot_duration") as err:
            load_trace(path, slot_duration)
        assert not isinstance(err.value, ParseError)
        assert repr(slot_duration) in str(err.value)


def test_load_trace_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("\n\n")
    with pytest.raises(EmptyTrace):
        load_trace(path, 1.0)


def test_synthetic_trace_density(tmp_path):
    path = tmp_path / "synth.csv"
    make_trace(path, n_requests=1000, horizon=2500)
    seq = load_trace(path, 1.0)
    assert seq.n_requests == 1000
    assert seq.horizon == 2500
    assert empirical_rate(seq) == pytest.approx(0.4, abs=1e-12)


def test_sequence_validation():
    with pytest.raises(ValueError):
        ArrivalSequence(horizon=5, slots=np.array([2, 7]), counts=np.array([1, 1]))
    with pytest.raises(ValueError):
        ArrivalSequence(horizon=5, slots=np.array([3, 3]), counts=np.array([1, 1]))
    with pytest.raises(ValueError):
        ArrivalSequence(horizon=5, slots=np.array([3]), counts=np.array([0]))


# Whitespace that float() strips ("\x85", "\xa0", "\u2028", "\u3000", ...)
# and that only str.strip() strips ("\x1c" to "\x1f"); "\r" and "\n" end lines.
_SPACE = [c for c in " \t\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2028\u2029\u3000"
          if c.encode(locale.getpreferredencoding(False), "ignore")]
_SPACES = st.text(st.sampled_from(_SPACE), max_size=3)
_FIELDS = st.one_of(
    st.floats(-1e6, 1e6).map(repr),
    st.integers(0, 10**6).map(str),
    st.sampled_from(["1_0", "1__0", "_1", "nan", "inf", "-inf", "+2.5", ".5", "5.", "1e3", "0x10", "1.2.3",
                     "abc", "key7", "", "١٢", "1e400"]),
)


@st.composite
def _trace_lines(draw):
    """Trace lines with CRLF, LF and lone CR ends: blank and whitespace-only
    lines, spaces around the first field, numbers with underscores, nan and
    +-inf, non-numeric fields and extra columns."""
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 4)) == 0:
            text = draw(_SPACES)
        else:
            extra = draw(st.sampled_from(["", ",key1", ",key2,get", ", 3", ","]))
            text = draw(_SPACES) + draw(_FIELDS) + draw(_SPACES) + extra + draw(_SPACES)
        lines.append(text + draw(st.sampled_from(["\n", "\r\n", "\r"])))
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    return "".join(lines)


def _outcome(read, *args):
    try:
        seq = read(*args)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)
    return seq.horizon, seq.slots.tolist(), seq.counts.tolist()


class _Warnings(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.records = []

    def emit(self, record):
        self.records.append(record)


@settings(max_examples=300, deadline=None)
@given(text=_trace_lines(), slot_duration=st.sampled_from([1.0, 0.25, 1e-300]))
def test_load_trace_matches_the_line_by_line_reader(tmp_path_factory, text, slot_duration):
    path = tmp_path_factory.getbasetemp() / "trace.csv"
    path.write_text(text, encoding=locale.getpreferredencoding(False), newline="")
    logger = logging.getLogger("agecost.arrivals")
    for mode in ("error", "skip"):
        skipped = []
        want = _outcome(reference_load_trace, path, slot_duration, mode, skipped)
        handler = _Warnings()
        logger.addHandler(handler)
        try:
            assert _outcome(load_trace, path, slot_duration, mode) == want, mode
        finally:
            logger.removeHandler(handler)
        assert [r.args for r in handler.records if r.msg.startswith("skipping")] == skipped
        totals = [r.args[0] for r in handler.records if r.msg.startswith("skipped")]
        assert totals == ([len(skipped)] if skipped and want[0] is not EmptyTrace else [])
