"""The reproduction scripts run as the README shows them."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_divergence_sweeps_reproduce_the_verdicts(tmp_path, capsys):
    script = _load("run_divergence_sweeps")
    assert script.main(["--outdir", str(tmp_path)]) == 0
    summaries = capsys.readouterr().out.splitlines()
    verdicts = {}
    for line in summaries:
        fields = dict(tok.split("=", 1) for tok in line.split() if "=" in tok)
        verdicts[fields["family"]] = fields["verdict"]
    assert verdicts == {
        "tetra": "diverging",
        "gn": "diverging",
        "product": "diverging",
        "hinge": "diverging",
        "flat_exp": "diverging",
        "flat_quartic": "no-divergence-slope-test-fails",
    }
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"sweep_{family}.csv" for family in verdicts
    )
