import hashlib
import locale
import logging
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agecost import (
    ArrivalSequence,
    BernoulliSource,
    CostModel,
    EmptyTrace,
    InvalidRate,
    ParseError,
    Policy,
    SlotOverflow,
    StalenessFn,
    arrivals,
    empirical_rate,
    generate_bernoulli,
    load_trace,
    simulate,
    simulate_many,
)

from oracles import bernoulli_path, make_trace, reference_load_trace


def test_rate_one_fills_every_slot():
    seq = generate_bernoulli(BernoulliSource(1.0, 123), n_requests=5)
    assert seq.slots.tolist() == [1, 2, 3, 4, 5]
    assert seq.n_requests == 5


def test_determinism():
    src = BernoulliSource(0.5, 7)
    c = generate_bernoulli(src, n_requests=50)
    d = generate_bernoulli(src, n_requests=50)
    assert np.array_equal(c.slots, d.slots)
    assert not np.array_equal(c.slots, generate_bernoulli(BernoulliSource(0.5, 8), n_requests=50).slots)


def test_stop_by_count():
    seq = generate_bernoulli(BernoulliSource(0.3, 21), n_requests=500)
    assert seq.n_requests == 500
    assert seq.horizon == int(seq.slots[-1])


def test_empirical_rate_concentration():
    seq = generate_bernoulli(BernoulliSource(0.5, 7), n_requests=10_000)
    assert 0.48 <= empirical_rate(seq) <= 0.52
    big = bernoulli_path(0.3, 5, 10**6)
    assert 0.29 <= empirical_rate(big) <= 0.31


def test_empirical_rate_exact_cases():
    assert empirical_rate(ArrivalSequence.from_slots(range(1, 11))) == 1.0
    assert empirical_rate(ArrivalSequence.from_slots([2, 4], horizon=10)) == 0.2


# sha256 of the little-endian int64 slots of 1000 requests, per (rate,
# seed), as numpy 2.4.6 draws them. numpy draws a geometric gap by inverting
# an exponential below rate 1/3 and by a search from 1/3 up, and NEP 19 lets
# a Generator's streams change between numpy versions: such a change fails
# here, not only through the CSV md5s. Every gap is 1 at rate 1, so its
# seeds share a digest.
_BERNOULLI_SHA256 = {
    (0.1, 0): "5d67ecae9d130fbc1e5fc4fb6f3947a4cb459d1e133d317baccafbda60af0369",
    (0.1, 1): "c8b2f5587518f236d9bf003b8b4546dcc3a5606ae52f8e212ae3bd2950712e06",
    (0.1, 2**64 - 1): "6980b035083ba47b0b52b077b687a0ac5890d9103b1f16c3a0406b671563b4a8",
    (0.3, 0): "de17b4ca5bf82fd0a04e654763b51ac707c06b3b3c11226fd402cdfb5a01728d",
    (0.3, 1): "94638219b8786fd285b82cfcbd954f9eccd355da83c2c48e62bb2a0d75297dd5",
    (0.3, 2**64 - 1): "bcde53c3de6bb6aeae0969e9b2de65b53eef78f4bed4bb7408d65de9c226abab",
    (0.5, 0): "690eac19eb843f262f5f368a81823d732ea2b3498c6ea7de5309395af346ad0a",
    (0.5, 1): "c3ff8ec277d085fae217f6c49b81bb4ca94070925cdcb9b1780dcfc84705f612",
    (0.5, 2**64 - 1): "9f771c07f5c1dbd47092c436c3ca3c0207ee51f8aba593e660e64c61eae03361",
    (1.0, 0): "1f4c8a964567752b9f2357c00ffd86613076563e4e8e075cb37fa97119bf2d61",
    (1.0, 1): "1f4c8a964567752b9f2357c00ffd86613076563e4e8e075cb37fa97119bf2d61",
    (1.0, 2**64 - 1): "1f4c8a964567752b9f2357c00ffd86613076563e4e8e075cb37fa97119bf2d61",
}


@pytest.mark.parametrize("rate,seed", sorted(_BERNOULLI_SHA256))
def test_bernoulli_slots_are_pinned_on_both_branches(rate, seed):
    slots = generate_bernoulli(BernoulliSource(rate, seed), n_requests=1000).slots
    assert hashlib.sha256(slots.astype("<i8").tobytes()).hexdigest() == _BERNOULLI_SHA256[rate, seed], \
        f"numpy {np.__version__} draws other slots at rate {rate}, seed {seed}"


# derive_seed returns seeds past 2^63; the stream reads the seed mod 2^64.
@pytest.mark.parametrize("seed", [-1, np.int64(-1), 2**63, 2**64 - 1, 2**64 + 5, np.uint64(2**64 - 1)],
                         ids=["-1", "int64 -1", "2**63", "2**64-1", "2**64+5", "uint64 2**64-1"])
def test_any_integer_seeds_a_stream(seed):
    source = BernoulliSource(0.5, seed)
    assert type(source.seed) is int
    expected = generate_bernoulli(BernoulliSource(0.5, int(seed) % 2**64), n_requests=50).slots
    assert np.array_equal(generate_bernoulli(source, n_requests=50).slots, expected)


def test_invalid_rates():
    for bad in (0.0, -0.1, 1.2):
        with pytest.raises(InvalidRate):
            BernoulliSource(bad, 1)


def test_stop_argument_validation():
    src = BernoulliSource(0.5, 1)
    with pytest.raises(TypeError):
        generate_bernoulli(src)
    for bad in (0, -3):
        with pytest.raises(ValueError, match="n_requests must be >= 1"):
            generate_bernoulli(src, n_requests=bad)


@pytest.mark.parametrize("bad", [2.5, True, "3", None, 10**20])
def test_integer_arguments_are_refused_by_name(bad):
    # numpy raised its own TypeError for 2.5, and simulate_many ran one run
    # for n_runs=True.
    src, model = BernoulliSource(0.5, 1), CostModel(StalenessFn.linear(), 5.0)
    with pytest.raises(ValueError, match=r"^n_requests must (be an integer|fit in int64)"):
        generate_bernoulli(src, n_requests=bad)
    with pytest.raises(ValueError, match=r"^n_runs must (be an integer|fit in int64)"):
        simulate_many(Policy.threshold(2), src, bad, 10, model)
    with pytest.raises(ValueError, match=r"^n_requests_per_run must (be an integer|fit in int64)"):
        simulate_many(Policy.threshold(2), src, 2, bad, model)


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
        with pytest.raises(SlotOverflow, match="span .*slot_duration") as err:
            load_trace(path, slot_duration)
        assert not isinstance(err.value, ParseError)
        assert repr(slot_duration) in str(err.value)


def test_load_trace_refuses_a_nul_in_the_path():
    # open() refused it with its own bare "embedded null byte".
    with pytest.raises(ValueError, match=re.escape("path: must not hold a NUL character, got 'a\\x00b'")):
        load_trace("a\0b", 1.0)


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
    # numpy would broadcast one count over both slots.
    with pytest.raises(ValueError, match="^counts must hold one count per slot, got 1 for 2 slots$"):
        ArrivalSequence(horizon=5, slots=np.array([1, 2]), counts=np.array([1]))
    # -2 - (2^63 - 1) wraps to a positive int64, so an order check by
    # differences passed these slots.
    with pytest.raises(ValueError, match="strictly increasing"):
        ArrivalSequence(horizon=10, slots=np.array([2**63 - 1, -2, 3]), counts=np.ones(3, dtype=np.int64))


def test_a_sequence_keeps_read_only_copies_of_its_arrays():
    # A write to the caller's slots once made this sequence price at 6.0,
    # and a write to a count left n_requests stale.
    slots, counts = np.array([1, 2]), np.array([1, 1])
    seq = ArrivalSequence(horizon=5, slots=slots, counts=counts)
    slots[0], counts[0] = 4, 7
    assert seq.slots.tolist() == [1, 2] and seq.counts.tolist() == [1, 1]
    assert simulate(Policy.naive(), seq, CostModel(StalenessFn.linear(), 100.0)).total == 3.0
    for built in (seq, ArrivalSequence.from_slots([1, 2]), ArrivalSequence.from_counts({1: 2}),
                  generate_bernoulli(BernoulliSource(0.5, 3), n_requests=4)):
        for arr in (built.slots, built.counts):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
        assert built.n_requests == built.counts.sum()


@pytest.mark.parametrize("build", [
    lambda: ArrivalSequence(horizon=5, slots=np.empty(0, np.int64), counts=np.empty(0, np.int64)),
    lambda: ArrivalSequence.from_slots([]),
    lambda: ArrivalSequence.from_slots([], horizon=5),
    lambda: ArrivalSequence.from_counts({}),
], ids=["direct", "from_slots", "from_slots with horizon", "from_counts"])
def test_a_sequence_with_no_request_is_refused_however_it_is_built(build):
    with pytest.raises(ValueError, match="^arrival sequence has no requests$"):
        build()


@pytest.mark.parametrize("rate", [1e-300, 1e-16])
def test_a_path_past_the_int64_slots_is_refused(rate):
    # The cumsum of the gaps wraps in int64: at 1e-16 the slots ran from
    # -9.2e18 to 9.2e18 and the horizon was -8.3e18.
    with pytest.raises(SlotOverflow, match=re.escape(f"1000 requests at rate {rate!r} pass the last int64 slot")):
        generate_bernoulli(BernoulliSource(rate, 3), n_requests=1000)


# Whitespace that float() strips ("\x85", "\xa0", "\u2028", "\u3000", ...)
# and that only str.strip() strips ("\x1c" to "\x1f"); "\r" and "\n" end lines.
_SPACE = [c for c in " \t\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2028\u2029\u3000"
          if c.encode(locale.getpreferredencoding(False), "ignore")]
_SPACES = st.text(st.sampled_from(_SPACE), max_size=3)
_FINITE = st.one_of(
    st.floats(-1e6, 1e6).map(repr),
    st.integers(0, 10**6).map(str),
    st.sampled_from(["+2.5", ".5", "5.", "1e3"]),
)
_FIELDS = _FINITE | st.sampled_from(["1_0", "1__0", "_1", "nan", "inf", "-inf", "0x10", "1.2.3", "abc", "key7", "",
                                     "١٢", "1e400"])
_ENDS = st.sampled_from(["\n", "\r\n", "\r"])
_EXTRA = st.sampled_from(["", ",key1", ",key2,get", ", 3", ","])
# Lines numpy's parse might read apart from the line-by-line reader; each
# sends load_trace to that reader.
_ODD_LINES = [line for line in ("1_0", "١٢", '"1"', "#1", "1\x00", "\ufeff1", "1e400", "Infinity", " \t", ",a")
              if line.encode(locale.getpreferredencoding(False), "ignore").decode() == line]


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
            text = draw(_SPACES) + draw(_FIELDS) + draw(_SPACES) + draw(_EXTRA) + draw(_SPACES)
        lines.append(text + draw(_ENDS))
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


@st.composite
def _well_formed_lines(draw):
    """Traces numpy's parse reads whole: finite stamps with whitespace
    around them and extra columns after, empty lines, LF, CRLF and lone CR
    ends, maybe no end on the last line; one in four also holds an odd line."""
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 4)) == 0:
            text = ""
        else:
            text = draw(_SPACES) + draw(_FINITE) + draw(_SPACES) + draw(_EXTRA)
        lines.append(text + draw(_ENDS))
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_ODD_LINES)) + draw(_ENDS))
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    return "".join(lines)


def _matches_reference(path, slot_duration):
    """Check ``load_trace`` against ``reference_load_trace`` in both
    ``on_malformed`` modes: the sequence or the error, its line number, and
    the skip log. Returns whether ``load_trace`` read the file line by line."""
    logger = logging.getLogger("agecost.arrivals")
    with mock.patch.object(arrivals, "_parse_lines", wraps=arrivals._parse_lines) as by_line:
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
    return by_line.called


_SLOT_DURATIONS = st.sampled_from([1.0, 0.25, 1e-300])


@settings(max_examples=300, deadline=None)
@given(text=_trace_lines(), slot_duration=_SLOT_DURATIONS)
def test_load_trace_matches_the_line_by_line_reader(tmp_path_factory, text, slot_duration):
    path = tmp_path_factory.getbasetemp() / "trace.csv"
    path.write_text(text, encoding=locale.getpreferredencoding(False), newline="")
    _matches_reference(path, slot_duration)


def test_load_trace_reads_like_the_line_by_line_reader_on_both_paths(tmp_path):
    # Warnings are errors: an empty or blank-only file raises EmptyTrace,
    # and numpy's "input contained no data" warning does not get out.
    path = tmp_path / "trace.csv"
    by_line = []

    @settings(max_examples=300, deadline=None)
    @given(text=_well_formed_lines(), slot_duration=_SLOT_DURATIONS)
    def check(text, slot_duration):
        path.write_text(text, encoding=locale.getpreferredencoding(False), newline="")
        by_line.append(_matches_reference(path, slot_duration))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for odd in _ODD_LINES:
            path.write_text(f"0.5\n{odd}\n2\n", encoding=locale.getpreferredencoding(False))
            assert _matches_reference(path, 1.0), odd
        # numpy's min() of 0.0 and -0.0 need not be the first, which the span's message names
        path.write_text("0.0\n-0.0\n1\n")
        assert not _matches_reference(path, 1e-300)
        check()
    assert any(by_line) and not all(by_line), f"{sum(by_line)} of {len(by_line)} read line by line"
