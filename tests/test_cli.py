"""Command-line harness: grids, CSV contracts, exit codes."""

import csv
import logging
import math
import re

import pytest

from gromovlab import cli, convex, verify, witnesses
from gromovlab.convex import CertificateError
from gromovlab.exact import OracleError
from test_scripts import _load


def run(argv):
    return cli.main(argv)


def read_rows(path):
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def read_comments(path):
    with open(path) as fh:
        return [ln.strip() for ln in fh if ln.startswith("#")]


# -- grids --------------------------------------------------------------------

def test_parse_grid_comma_list():
    assert cli.parse_grid("0.5,0.9") == (0.5, 0.9)


def test_parse_grid_geometric():
    grid = cli.parse_grid("geom:1e-2:0.1:4")
    assert grid == pytest.approx((1e-2, 1e-3, 1e-4, 1e-5))


def test_parse_grid_rejects_garbage():
    with pytest.raises(ValueError):
        cli.parse_grid("geom:1:2")
    with pytest.raises(ValueError):
        cli.parse_grid("a,b")


def test_sweep_config_validates():
    with pytest.raises(ValueError):
        cli.SweepConfig(family="nope", grid=(0.5,), out="x.csv")
    with pytest.raises(ValueError):
        cli.SweepConfig(family="tetra", grid=(0.5, 0.9, 0.7), out="x.csv")
    with pytest.raises(ValueError):
        cli.SweepConfig(family="tetra", grid=(), out="x.csv")
    # the sweep runs in one process
    for workers in (0, 2):
        with pytest.raises(ValueError, match="one process"):
            cli.SweepConfig(family="tetra", grid=(0.5,), out="x.csv", workers=workers)
    # descending grids are how geometric sweeps arrive
    cli.SweepConfig(family="hinge", grid=(1e-6, 1e-10), out="x.csv")
    # the benchmark harness's own call
    cli.SweepConfig(family="hinge", grid=(1e-6,), out="x.csv", workers=1, timings=True)


# -- sweep ----------------------------------------------------------------------

def test_sweep_tetra_values_and_summary(tmp_path):
    out = tmp_path / "t.csv"
    assert run(["sweep", "--family", "tetra", "--grid", "0.5,0.9", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert [r["param"] for r in rows] == ["0.5", "0.90000000000000002"]
    assert float(rows[0]["S_lb"]) == pytest.approx(math.atanh(0.5), abs=1e-9)
    assert rows[0]["wall_ms"] == "0" and rows[0]["error"] == ""
    summary = [c for c in read_comments(out) if c.startswith("# summary")]
    assert len(summary) == 1
    assert "family=tetra" in summary[0] and "verdict=diverging" in summary[0]


def test_sweep_tetra_certifies_down_to_the_last_float_below_one(tmp_path):
    out = tmp_path / "t.csv"
    grid = "0.999999,0.99999999,0.9999999999999999"
    assert run(["sweep", "--family", "tetra", "--grid", grid, "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 3
    assert all(r["error"] == "" and float(r["S_lb"]) > 7.0 for r in rows)


def test_sweep_row_failure_sets_exit_two(tmp_path, caplog):
    # the refusal is recorded in the row's error column and the exit code,
    # and not logged row by row
    caplog.set_level(logging.DEBUG, logger="gromovlab.cli")
    out = tmp_path / "t.csv"
    code = run(["sweep", "--family", "tetra", "--grid", "0.5,2.0", "--out", str(out)])
    assert code == 2
    rows = read_rows(out)
    assert rows[1]["S_lb"] == "" and rows[1]["error"] != ""
    assert float(rows[0]["S_lb"]) > 0.0  # healthy rows still computed
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
    assert f"sweep wrote {out} (2 rows, 1 failed)" in caplog.messages


def test_sweep_row_past_the_split_cap_is_a_certificate_error(tmp_path, monkeypatch):
    # flat_quartic's base-point bracket needs more than one branch-and-bound
    # split, so with the cap at one the bracket refuses the row
    monkeypatch.setattr(convex, "_BB_MAX_ITER", 1)
    out = tmp_path / "q.csv"
    assert run(["sweep", "--family", "flat_quartic", "--grid", "0.02", "--out", str(out)]) == 2
    (row,) = read_rows(out)
    assert row["S_lb"] == ""
    assert row["error"] == ("CertificateError: point 0 of the block needs more than 1 "
                            "branch-and-bound splits")


def test_sweep_quartic_verdict_is_flat(tmp_path):
    out = tmp_path / "q.csv"
    grid = "geom:0.02:0.1353352832366127:6"
    assert run(["sweep", "--family", "flat_quartic", "--grid", grid, "--out", str(out)]) == 0
    (summary,) = [c for c in read_comments(out) if c.startswith("# summary")]
    assert "verdict=no-divergence-slope-test-fails" in summary


def test_sweep_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--family", "hinge", "--grid", "geom:1e-6:1e-4:3"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_usage_errors(tmp_path):
    assert run(["sweep", "--family", "bogus", "--grid", "1", "--out", "x.csv"]) == 1
    assert run(["sweep", "--family", "tetra", "--out", str(tmp_path / "x.csv")]) == 1


def test_removed_options_are_usage_errors(tmp_path):
    # witnesses are deterministic, every setting is a flag, verify's
    # tolerances are fixed, and the sweep runs in one process
    out = str(tmp_path / "x.csv")
    assert run(["sweep", "--family", "tetra", "--grid", "0.5", "--seed", "1", "--out", out]) == 1
    assert run(["sweep", "--family", "tetra", "--grid", "0.5", "--workers", "2",
                "--out", out]) == 1
    with pytest.raises(SystemExit):
        _load("run_divergence_sweeps").main(["--workers", "2"])
    assert run(["verify", "--config", "c.cfg"]) == 1
    assert run(["sweep", "--family", "tetra", "--grid", "0.5", "--config", "c.cfg",
                "--out", out]) == 1
    assert run(["sample", "--domain", "disc", "--n", "10", "--config", "c.cfg",
                "--out", out]) == 1
    assert run(["verify", "--tolerance", "2"]) == 1


# -- sample -----------------------------------------------------------------------

def test_sample_disc_checkpoints_and_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sample", "--domain", "disc", "--n", "500", "--seed", "9"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    rows = read_rows(a)
    assert [r["n"] for r in rows] == ["10", "100", "500"]
    sups = [float(r["sup_defect"]) for r in rows]
    assert sups == sorted(sups)  # shared prefix makes checkpoints monotone
    comments = read_comments(a)
    assert any(c.startswith("# summary domain=disc") for c in comments)
    assert any(c.startswith("# argmax") for c in comments)


def test_sample_directed_polydisc_dominates(tmp_path):
    out = tmp_path / "d.csv"
    assert run(["sample", "--domain", "polydisc", "--n", "64", "--seed", "2",
                "--directed-scale", "40", "--out", str(out)]) == 0
    rows = read_rows(out)
    assert float(rows[-1]["sup_defect"]) == pytest.approx(40.0, abs=1e-9)


@pytest.mark.parametrize("domain", ["disc", "ball", "tetra"])
def test_sample_directed_scale_needs_polydisc(tmp_path, domain):
    # a directed run elsewhere would sample undirected under a directed label
    out = tmp_path / "d.csv"
    with pytest.raises(ValueError):
        cli.run_sample(domain, 100, 3, str(out), directed_scale=50.0)
    assert not out.exists()
    assert run(["sample", "--domain", domain, "--n", "100", "--directed-scale", "50",
                "--out", str(out)]) == 1
    assert not out.exists()


def test_sample_directed_scale_out_of_range_is_usage_error(tmp_path, capsys):
    # product witnesses refuse scales above 300; that reads as a usage error
    out = tmp_path / "d.csv"
    assert run(["sample", "--domain", "polydisc", "--n", "10", "--directed-scale", "500",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "scale must be in (0, 300]" in err
    assert not out.exists()


def test_sample_rejects_bad_n(tmp_path):
    assert run(["sample", "--domain", "disc", "--n", "0",
                "--out", str(tmp_path / "x.csv")]) == 1


# -- verify ------------------------------------------------------------------------

def test_verify_exit_codes(capsys):
    assert run(["verify"]) == 0
    out = capsys.readouterr().out
    assert "OK (12/12 suites)" in out
    assert run(["verify", "--mutate"]) == 3
    out = capsys.readouterr().out
    # every broken anchor is named or counted in the "(+N more)" tail
    (line,) = [ln for ln in out.splitlines() if ln.startswith("FAIL exact-anchors: ")]
    named = line.count(": got ")
    more = re.search(r" \(\+(\d+) more\)$", line)
    assert named + (int(more.group(1)) if more else 0) == len(verify._ANCHORS)


@pytest.mark.parametrize("error", [CertificateError, OracleError])
def test_verify_reports_a_raising_suite_as_fail(monkeypatch, capsys, caplog, error):
    def refuse(a):
        raise error(f"refused a={a}")

    monkeypatch.setattr(witnesses, "gn_witness", refuse)
    caplog.set_level(logging.DEBUG, logger="gromovlab.verify")
    assert run(["verify"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert f"FAIL symmetrized-bidisc: {error.__name__}: refused a=0.3" in lines
    assert sum(line.startswith("PASS ") for line in lines) == 11
    assert lines[-1] == "FAILED (11/12 suites)"
    (record,) = [r for r in caplog.records if r.name == "gromovlab.verify"]
    assert record.levelno == logging.DEBUG and record.exc_info[0] is error
