"""Tests for report formatting and the CLI plumbing (no experiments run)."""

import inspect

import pytest

import repro.bench.figures as figures_mod
from repro.bench.figures import FIGURES, run_figure
from repro.bench.report import format_table, series_to_rows
from repro.cli import main
from repro.parallel import resolve_callable


# ---------------------------------------------------------------------------
# format_table
# ---------------------------------------------------------------------------
def test_format_table_alignment_and_types():
    table = format_table(
        "Title",
        ["name", "value", "pct"],
        [("alpha", 123.456, 0.5), ("b", 1.23, 99.0)],
    )
    lines = table.splitlines()
    assert lines[0] == "Title"
    assert lines[1] == "-----"
    assert "name" in lines[2] and "value" in lines[2]
    assert "alpha" in lines[4]
    # Floats are compacted: >=100 -> no decimals; >=1 -> one decimal.
    assert "123" in lines[4]
    assert "1.2" in lines[5]
    assert "99" in lines[5]


def test_format_table_small_floats_keep_precision():
    table = format_table("T", ["v"], [(0.123456,)])
    assert "0.123" in table


def test_series_to_rows_thins():
    series = [(float(i), float(i * 10)) for i in range(20)]
    thinned = series_to_rows(series, every=5)
    assert thinned == [(0.0, 0.0), (5.0, 50.0), (10.0, 100.0), (15.0, 150.0)]


# ---------------------------------------------------------------------------
# Figure registry / CLI
# ---------------------------------------------------------------------------
def test_figure_registry_covers_all_paper_figures():
    expected = {"fig1", "fig2", "fig5", "fig6", "fig7", "fig8",
                "fig9", "fig10", "fig11", "fig12"}
    assert expected <= set(FIGURES)


def test_run_figure_rejects_unknown_names():
    with pytest.raises(KeyError):
        run_figure("fig99")


class _SweepRecorded(Exception):
    pass


@pytest.mark.parametrize("name, quick", [
    (name, quick)
    for name, fn in sorted(FIGURES.items())
    for quick in ((False, True) if "quick" in inspect.signature(fn).parameters else (False,))
])
def test_figure_specs_bind_to_their_runners(monkeypatch, name, quick):
    # Figures run only outside tier-1, so without this a spec passing a
    # keyword its runner no longer takes fails only when the figure runs.
    recorded = []

    def record(specs):
        recorded.extend(specs)
        raise _SweepRecorded

    monkeypatch.setattr(figures_mod, "run_sweep", record)
    with pytest.raises(_SweepRecorded):
        run_figure(name, quick=quick)
    assert recorded
    for spec in recorded:
        inspect.signature(resolve_callable(spec.fn)).bind(**spec.kwargs)


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig1" in out and "fig12" in out


def test_cli_unknown_experiment(capsys):
    # "bench" was a subcommand once; now it is as unknown as any other name.
    for name in ("nonsense", "bench"):
        assert main([name]) == 2
        assert f"unknown experiment(s): {name}" in capsys.readouterr().err


def test_cli_runs_experiment_and_writes_output(tmp_path, capsys, monkeypatch):
    # Substitute a fast fake figure so the CLI path is tested end to end.
    monkeypatch.setitem(FIGURES, "fake", lambda: ([(1, 2)], "Fake\n----\ndone"))
    assert main(["fake", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "done" in out and "completed" in out
    assert (tmp_path / "fake.txt").read_text().startswith("Fake")
