"""The reproduction scripts run as the README shows them."""

import csv
import hashlib
import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# sha256 of each sweep CSV the script writes: any change to a certified
# bit, a grid point or the file's layout changes them
SWEEP_DIGESTS = {
    "tetra": "c7437b7f37ed17012f1ff9e5d20572057a1ae1ed9ca7c71b9c6428703e39acc6",
    "gn": "6bde77fb74ceadb262c1d8052921f27d16bb2df10a94fed4e87ee7808c419d19",
    "product": "8a5213d68c8d6c35ef0ad9b4bdfc81b7176eed40df9465369bb5e0dfe15b85ee",
    "hinge": "cfc489c289f1c4a0d1272af07ed8c579927fa0258e40a980565fd3cac1b083c6",
    "flat_exp": "7f4fbac9a14e9409e0f0a4007083bb055c19fae2695458ded025418ebe77a8fd",
    "flat_quartic": "d13a468d7a8b0aecb02b9c4c58f0d021c707e3bb78469ac2a2b470e1a94d83d3",
}


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
    digests = {family: hashlib.sha256((tmp_path / f"sweep_{family}.csv").read_bytes()).hexdigest()
               for family in verdicts}
    assert digests == SWEEP_DIGESTS


def test_hyperbolic_controls_write_every_run(tmp_path, capsys):
    script = _load("run_hyperbolic_controls")
    assert script.main(["--outdir", str(tmp_path), "--n", "1000", "--seed", "7"]) == 0
    summaries = capsys.readouterr().out.splitlines()
    directed = {f"sample_polydisc_directed_{s:g}.csv": s for s in script.DIRECTED_SCALES}
    names = [f"sample_{d}.csv" for d in script.CONTROL_DOMAINS] + list(directed)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    assert len(summaries) == len(names)
    assert all(line.startswith("# summary domain=") for line in summaries)
    # the injected quadruple comes from draw 8 on, so every checkpoint,
    # n = 10 first, reads the scale exactly
    for name, scale in directed.items():
        with open(tmp_path / name) as fh:
            rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
        assert rows and all(float(r["sup_defect"]) == scale for r in rows)
        assert f"directed_scale={scale:g} sup={scale:g}" in summaries[names.index(name)]
