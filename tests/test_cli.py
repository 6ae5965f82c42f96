"""Command-line harness: grids, CSV contracts, exit codes."""

import csv
import math

import pytest

from gromovlab import cli


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
    # descending grids are how geometric sweeps arrive
    cli.SweepConfig(family="hinge", grid=(1e-6, 1e-10), out="x.csv")


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


def test_sweep_row_failure_sets_exit_two(tmp_path):
    out = tmp_path / "t.csv"
    code = run(["sweep", "--family", "tetra", "--grid", "0.5,2.0", "--out", str(out)])
    assert code == 2
    rows = read_rows(out)
    assert rows[1]["S_lb"] == "" and rows[1]["error"] != ""
    assert float(rows[0]["S_lb"]) > 0.0  # healthy rows still computed


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


def test_sweep_workers_match_serial(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    grid = "geom:0.02:0.1353352832366127:4"
    assert run(["sweep", "--family", "flat_exp", "--grid", grid, "--out", str(a)]) == 0
    assert run(["sweep", "--family", "flat_exp", "--grid", grid, "--out", str(b),
                "--workers", "2"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_usage_errors(tmp_path):
    assert run(["sweep", "--family", "bogus", "--grid", "1", "--out", "x.csv"]) == 1
    assert run(["sweep", "--family", "tetra", "--out", str(tmp_path / "x.csv")]) == 1


def test_removed_options_are_usage_errors(tmp_path):
    # witnesses are deterministic, every setting is a flag, and verify's
    # tolerances are fixed
    out = str(tmp_path / "x.csv")
    assert run(["sweep", "--family", "tetra", "--grid", "0.5", "--seed", "1", "--out", out]) == 1
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
    assert "FAIL" in out
