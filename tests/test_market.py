"""Panel ingestion, synthetic generation, and splitting."""

import numpy as np
import pytest

from bwsl.errors import DataError
from bwsl.features import PreparedPanel
from bwsl.market import (
    CSV_HEADER,
    MarketPanel,
    SynthConfig,
    format_month,
    load_panel,
    parse_month,
    save_panel,
    split,
    substream,
    synth_market,
)
from test_features import START


def _write(tmp_path, rows, name="panel.csv"):
    path = tmp_path / name
    path.write_text(CSV_HEADER + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


def _row(stock, period, close, vol=0.5, volume=1000, mcap=1e6, pe=12, bm=0.4, div=0.1):
    return f"{stock},{period},{close},{vol},{volume},{mcap},{pe},{bm},{div}"


def test_parse_and_format_month_roundtrip():
    assert format_month(parse_month("1990-01")) == "1990-01"
    assert parse_month("1990-02") - parse_month("1990-01") == 1
    with pytest.raises(DataError):
        parse_month("1990-13")
    with pytest.raises(DataError):
        parse_month("199001")


def test_load_well_formed_two_stock_three_month_panel(tmp_path):
    rows = [
        _row("A", f"2001-{m:02d}", 10 + m) for m in (1, 2, 3)
    ] + [
        _row("B", f"2001-{m:02d}", 20 + m) for m in (1, 2, 3)
    ]
    panel = load_panel(_write(tmp_path, rows))
    assert panel.n_stocks == 2 and panel.n_periods == 3
    assert panel.mask.all()
    assert panel.field("close")[panel.stock_index("A"), panel.index_of("2001-02")] == 12.0


def test_load_rejects_non_positive_close_with_row_number(tmp_path):
    rows = [_row("A", "2001-01", 10.0), _row("A", "2001-02", -1.0)]
    with pytest.raises(DataError, match=":3:"):
        load_panel(_write(tmp_path, rows))


def test_load_rejects_duplicate_bar(tmp_path):
    rows = [_row("A", "2001-01", 10.0), _row("A", "2001-01", 11.0)]
    with pytest.raises(DataError, match="duplicate"):
        load_panel(_write(tmp_path, rows))


def test_load_rejects_malformed_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(CSV_HEADER + "\nA,2001-01,10,0.5,1\n", encoding="utf-8")
    with pytest.raises(DataError, match=":2:"):
        load_panel(path)


def test_missing_month_is_masked_exactly_there(tmp_path):
    rows = [
        _row("A", "2001-01", 10),
        _row("A", "2001-02", 11),
        _row("A", "2001-03", 12),
        _row("B", "2001-01", 20),
        _row("B", "2001-03", 22),
    ]
    panel = load_panel(_write(tmp_path, rows))
    expected = np.array([[True, True, True], [True, False, True]])
    np.testing.assert_array_equal(panel.mask, expected)
    assert not panel.mask[panel.stock_index("B"), panel.index_of("2001-02")]


def test_save_load_roundtrip_keeps_a_missing_bar_missing(tmp_path):
    rows = [_row("A", f"2001-0{m}", 10 + m) for m in (1, 2, 3)]
    rows += [_row("B", "2001-01", 20), _row("B", "2001-03", 22)]
    panel = load_panel(_write(tmp_path, rows))
    save_panel(panel, tmp_path / "saved.csv")
    saved = (tmp_path / "saved.csv").read_text(encoding="utf-8").splitlines()
    assert len(saved) == 1 + len(rows)
    assert not any(line.startswith("B,2001-02,") for line in saved)
    again = load_panel(tmp_path / "saved.csv")
    np.testing.assert_array_equal(again.mask, panel.mask)
    for name in ("close", "vol", "volume", "mcap", "pe", "bm", "div"):
        np.testing.assert_array_equal(again.field(name), panel.field(name))


def test_save_load_roundtrip_is_byte_identical(tmp_path):
    cfg = SynthConfig(num_stocks=5, num_periods=30, seed=3)
    panel = synth_market(cfg)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    save_panel(panel, p1)
    save_panel(load_panel(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_scientific_notation_accepted(tmp_path):
    rows = [_row("A", "2001-01", "1.5e1", mcap="1e6"), _row("A", "2001-02", 16)]
    panel = load_panel(_write(tmp_path, rows))
    assert panel.field("close")[panel.stock_index("A"), panel.index_of("2001-01")] == 15.0


def test_synth_same_seed_is_bitwise_identical():
    cfg = SynthConfig(num_stocks=6, num_periods=30, seed=11)
    a = synth_market(cfg)
    b = synth_market(cfg)
    for f in ("close", "vol", "volume", "mcap", "pe", "bm", "div"):
        assert a.field(f).tobytes() == b.field(f).tobytes()
    assert a.stock_ids == b.stock_ids


def test_synth_shape_and_mask():
    panel = synth_market(SynthConfig(num_stocks=8, num_periods=30, seed=1))
    assert panel.mask.shape == (8, 30)
    assert panel.mask.all()


def test_synth_vol_scale_tracks_configured_range():
    cfg = SynthConfig(
        num_stocks=8, num_periods=30, vol_range=(0.01, 0.01), seed=5,
        momentum=0.5, reversion=0.5,
    )
    panel = synth_market(cfg)
    ratio = panel.field("vol") / panel.field("close")
    assert np.all(ratio >= 0.5 * 0.01)
    assert np.all(ratio <= 2.0 * 0.01)


def test_synth_validates_config():
    with pytest.raises(DataError):
        SynthConfig(num_stocks=3, num_periods=30)
    with pytest.raises(DataError):
        SynthConfig(num_stocks=8, num_periods=10)
    with pytest.raises(DataError):
        SynthConfig(num_stocks=8, num_periods=30, vol_range=(0.0, 0.1))


@pytest.mark.parametrize(
    "knobs, message",
    [
        ({"momentum": "x"}, "synth: momentum must be a real number, got 'x'"),
        ({"momentum": True}, "synth: momentum must be a real number, got True"),
        ({"reversion": float("nan")}, "synth: reversion must be finite, got nan"),
        ({"reversion": -1.0}, "synth: reversion must be at least 0, got -1.0"),
        ({"vol_range": (0.02,)}, r"synth: need a \(lo, hi\) vol_range, got"),
        ({"vol_range": 0.02}, r"synth: need a \(lo, hi\) vol_range, got"),
        ({"vol_range": (0.02, "0.08")}, "synth: vol_range must be a real number"),
        ({"vol_range": (0.08, 0.02)}, "synth: vol_range must satisfy 0 < lo <= hi"),
    ],
    ids=["momentum_str", "momentum_bool", "reversion_nan", "reversion_negative", "short_pair",
         "scalar", "str_hi", "reversed"],
)
def test_synth_knobs_that_are_not_finite_reals_raise_data_error(knobs, message):
    # momentum="x" used to fail with a bare UFuncTypeError in the generator,
    # reversion=nan with a misleading "panel: non-finite value", and a
    # one-entry vol_range with a bare ValueError; a negative reversion
    # overflowed the generator
    with pytest.raises(DataError, match=message):
        SynthConfig(num_stocks=8, num_periods=30, **knobs)


def test_synth_knobs_are_kept_as_floats():
    cfg = SynthConfig(4, 30, momentum=2, reversion=np.float64(0.5), vol_range=[1, 2], seed=2)
    knobs = (cfg.momentum, cfg.reversion, *cfg.vol_range)
    assert [type(v) for v in knobs] == [float] * 4 and cfg.vol_range == (1.0, 2.0)
    floats = SynthConfig(4, 30, momentum=2.0, reversion=0.5, vol_range=(1.0, 2.0), seed=2)
    closes = [synth_market(c).field("close").tobytes() for c in (cfg, floats)]
    assert closes[0] == closes[1]


def test_substream_is_deterministic_and_named():
    a = substream(7, "data").standard_normal(4)
    b = substream(7, "data").standard_normal(4)
    c = substream(7, "init").standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_split_train_ends_at_cut():
    # 47 years monthly, cut at 1990-01
    start = parse_month("1970-01")
    n = 47 * 12
    values = {
        f: np.full((2, n), v)
        for f, v in (
            ("close", 10.0),
            ("vol", 0.1),
            ("volume", 1.0),
            ("mcap", 1e6),
            ("pe", 10.0),
            ("bm", 0.5),
            ("div", 0.1),
        )
    }
    panel = MarketPanel(["A", "B"], start, values, np.ones((2, n), dtype=bool))
    train, test = split(panel, "1990-01", k=12)
    assert format_month(train.end) == "1990-01"
    assert train.start == panel.start
    assert test.end == panel.end


def test_split_test_overlap_supports_first_decision():
    panel = synth_market(SynthConfig(num_stocks=4, num_periods=40, seed=2))
    cut = panel.start + 24
    train, test = split(panel, cut, k=12)
    # first decision time after the cut has a full 12-month window on the test panel
    t = cut + 1
    assert test.start == cut - 11
    assert test.index_of(t) == 12
    assert train.end + 1 == t


def test_split_rejects_cut_on_the_edge():
    panel = synth_market(SynthConfig(num_stocks=4, num_periods=30, seed=2))
    with pytest.raises(DataError):
        split(panel, panel.end)
    with pytest.raises(DataError):
        split(panel, panel.start)


def test_split_leaves_no_gap():
    panel = synth_market(SynthConfig(num_stocks=4, num_periods=36, seed=9))
    cut = panel.start + 20
    train, test = split(panel, cut, k=6)
    assert train.end - test.start + 1 == 6  # exactly the k-month overlap
    assert np.array_equal(
        np.union1d(train.periods, test.periods), panel.periods
    )


def test_index_of_rejects_a_fractional_month():
    # start + 12.5 used to be truncated to start + 12
    panel = synth_market(SynthConfig(num_stocks=4, num_periods=30, seed=2))
    with pytest.raises(DataError, match="period must be a whole number, got"):
        panel.index_of(panel.start + 12.5)
    with pytest.raises(DataError, match="period must be a whole number, got"):
        panel.index_of(True)
    assert panel.index_of(float(panel.start + 12)) == 12
    prep = PreparedPanel(panel, k=12)
    with pytest.raises(DataError, match="period must be a whole number"):
        prep.windows(panel.start + 12.5)
    assert prep.windows(float(panel.start + 12)) is prep.windows(panel.start + 12)


@pytest.mark.parametrize(
    "build, what",
    [
        (lambda panel: split(panel, panel.start + 12, 12.5), "split: k"),
        (lambda panel: split(panel, panel.start + 12.5), "period"),
        (lambda panel: SynthConfig(8.5, 30), "synth: num_stocks"),
        (lambda panel: SynthConfig(8, 30.5), "synth: num_periods"),
        (lambda panel: SynthConfig(8, 30, sub_steps=2.5), "synth: sub_steps"),
        (lambda panel: SynthConfig(True, 30), "synth: num_stocks"),
    ],
    ids=["split_k", "split_train_end", "num_stocks", "num_periods", "sub_steps", "bool_size"],
)
def test_fractional_market_sizes_raise_data_error(build, what):
    # each used to fail with a bare TypeError from a slice or array shape,
    # or to truncate the month
    panel = synth_market(SynthConfig(num_stocks=4, num_periods=30, seed=2))
    with pytest.raises(DataError, match=f"{what} must be a whole number, got"):
        build(panel)


def test_whole_float_market_sizes_are_kept_as_ints():
    cfg = SynthConfig(4.0, 30.0, sub_steps=np.int64(3), seed=2.0)
    sizes = (cfg.num_stocks, cfg.num_periods, cfg.sub_steps, cfg.seed)
    assert [type(v) for v in sizes] == [int] * 4
    a = synth_market(cfg)
    b = synth_market(SynthConfig(4, 30, sub_steps=3, seed=2))
    assert a.field("close").tobytes() == b.field("close").tobytes()
    _, test = split(a, a.start + 15, 6.0)
    assert test.start == split(a, a.start + 15, 6)[1].start == a.start + 10


def test_panel_arrays_are_read_only():
    panel = synth_market(SynthConfig(num_stocks=4, num_periods=30, seed=2))
    with pytest.raises(ValueError):
        panel.field("close")[0, 0] = 1.0


def _bars(**bad):
    """The fields of a 2-stock, 3-month panel, with ``bad`` values written
    into stock 1's bar at month 1."""
    good = dict(close=10.0, vol=0.5, volume=1e3, mcap=1e6, pe=12.0, bm=0.4, div=0.1)
    fields = {name: np.full((2, 3), value) for name, value in good.items()}
    for name, value in bad.items():
        fields[name][1, 1] = value
    return fields


def _two_stock_panel(fields=None, ids=("A", "B"), mask=None, start=START):
    mask = np.ones((2, 3), bool) if mask is None else mask
    return MarketPanel(ids, start, _bars() if fields is None else fields, mask)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: _two_stock_panel(ids=("A",)), "mask rows do not match stock ids"),
        (lambda: _two_stock_panel(mask=np.ones(3, bool)), "mask rows do not match stock ids"),
        (lambda: _two_stock_panel(ids=("A", "A")), "duplicate stock id"),
        (lambda: _two_stock_panel(start=START + 0.5), "start must be a whole number"),
        (lambda: _two_stock_panel({**_bars(), "vol": np.ones(6)}), r"field vol has shape \(6,\)"),
        (lambda: _two_stock_panel(_bars(pe=np.nan)), "non-finite value in a present bar"),
        (lambda: _two_stock_panel(_bars(close=0.0)), "non-positive close in a present bar"),
        (lambda: _two_stock_panel(_bars(vol=-0.1)), "negative vol in a present bar"),
        (lambda: _two_stock_panel(_bars(volume=-1.0)), "negative volume in a present bar"),
        (lambda: _two_stock_panel(_bars(mcap=0.0)), "non-positive mcap in a present bar"),
    ],
    ids=["id_count", "flat_mask", "duplicate_id", "fractional_start", "field_shape", "non_finite",
         "close", "vol", "volume", "mcap"],
)
def test_market_panel_rejects_inconsistent_fields_and_bad_bars(build, message):
    # a 1-d mask used to fail with a bare ValueError, a repeated id was
    # accepted (stock_index found its last row), and a fractional start was
    # truncated
    with pytest.raises(DataError, match=f"panel: {message}"):
        build()


def test_market_panel_rejects_a_missing_field():
    # used to fail with a bare KeyError
    fields = _bars()
    del fields["div"]
    with pytest.raises(DataError, match=r"panel: field div has shape \(\)"):
        _two_stock_panel(fields)


def test_market_panel_accepts_any_value_in_an_absent_bar():
    mask = np.ones((2, 3), bool)
    mask[1, 1] = False
    panel = _two_stock_panel(_bars(close=np.nan, vol=-1.0, volume=-1.0, mcap=0.0), mask=mask)
    assert not panel.mask[1, 1]


@pytest.mark.parametrize(
    "look_up, message",
    [
        (lambda panel: panel.index_of(START - 1), "period 1999-12 outside the panel axis"),
        (lambda panel: panel.index_of("2000-04"), "period 2000-04 outside the panel axis"),
        (lambda panel: panel.stock_index("C"), "unknown stock 'C'"),
    ],
    ids=["before_start", "after_end", "unknown_stock"],
)
def test_panel_look_ups_outside_the_panel_raise_data_error(look_up, message):
    with pytest.raises(DataError, match=message):
        look_up(_two_stock_panel())


def _file(content):
    """A writer of ``content`` (str or bytes) to panel.csv in a directory."""
    def write(tmp_path):
        path = tmp_path / "panel.csv"
        (path.write_bytes if isinstance(content, bytes) else path.write_text)(content)
        return path
    return write


def _rows(*rows):
    return _file("\n".join((CSV_HEADER,) + rows) + "\n")


_GOOD = _row("A", "2001-01", 10.0)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda tmp_path: tmp_path / "absent.csv", "cannot read"),
        (lambda tmp_path: tmp_path, "cannot read"),
        (_file(CSV_HEADER.encode() + b"\nA,2001-01,\xff\n"), "cannot read"),
        (_file(""), "missing or wrong header"),
        (_file("id,period\n" + _GOOD + "\n"), "missing or wrong header"),
        (_rows(_row(" ", "2001-01", 10.0)), ":2: empty stock_id"),
        (_rows(_row("A", "2001-13", 10.0)), ":2: bad period '2001-13'"),
        (_rows(_row("A", "2001-01", "ten")), ":2: unparsable number"),
        (_rows(_GOOD, _row("A", "2001-02", "nan")), ":3: non-finite value"),
        (_rows(_row("A", "2001-01", 10.0, pe="inf")), ":2: non-finite value"),
        (_rows(_row("A", "2001-01", 10.0, vol=-0.5)), ":2: negative vol"),
        (_rows(_row("A", "2001-01", 10.0, volume=-1)), ":2: negative volume"),
        (_rows(_row("A", "2001-01", 10.0, mcap=0)), ":2: non-positive mcap"),
        (_rows(), "no data rows"),
        (_rows("", "  "), "no data rows"),
    ],
    ids=[
        "missing_file", "directory", "not_utf8", "empty_file", "wrong_header", "empty_id",
        "bad_period", "unparsable", "nan_close", "inf_pe", "negative_vol", "negative_volume",
        "zero_mcap", "no_rows", "blank_rows",
    ],
)
def test_load_panel_rejects_unreadable_or_malformed_files(tmp_path, make, message):
    # a file that is not UTF-8 used to fail with a bare UnicodeDecodeError
    with pytest.raises(DataError, match=message):
        load_panel(make(tmp_path))
