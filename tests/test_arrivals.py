import logging

import numpy as np
import pytest

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

from oracles import make_trace


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


def test_sequence_csv_export(tmp_path):
    seq = ArrivalSequence.from_counts({3: 2, 7: 1}, horizon=9)
    out = tmp_path / "seq.csv"
    seq.to_csv(out)
    assert out.read_text() == "slot,count\n3,2\n7,1\n"


def test_sequence_validation():
    with pytest.raises(ValueError):
        ArrivalSequence(horizon=5, slots=np.array([2, 7]), counts=np.array([1, 1]))
    with pytest.raises(ValueError):
        ArrivalSequence(horizon=5, slots=np.array([3, 3]), counts=np.array([1, 1]))
    with pytest.raises(ValueError):
        ArrivalSequence(horizon=5, slots=np.array([3]), counts=np.array([0]))
