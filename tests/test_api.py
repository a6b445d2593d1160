import dataclasses
import importlib
import re
from pathlib import Path

import diophlab
from diophlab.cli import parse_args
from diophlab.counting import Convention, CountingKernel
from diophlab.montecarlo import ExperimentConfig
from diophlab.problem import ApproximationProblem, validate

# second copies removed in favour of the paths that experiments run
DELETED = {
    "problem": ("Annulus", "domain_volume_annulus", "norm_eval", "WeightedBoxFunction", "domain_volume"),
    "lattice": ("DiagonalFlow", "_radial_int_window", "siegel_transform_points", "truncated_siegel"),
    "counting": ("count_block", "normalize_clt"),
    "cumulants": ("empirical_cumulant", "separation_D"),
    "theory": ("sigma2_series",),
    "montecarlo": ("u_stream", "sample_u"),
}

P11 = validate(ApproximationProblem(m=1, n=1, weights=(1,), thetas=(0.5,)))
README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_resolve_and_deleted_ones_are_gone():
    for name in diophlab.__all__:
        assert getattr(diophlab, name) is not None, name
    for module, names in DELETED.items():
        mod = importlib.import_module(f"diophlab.{module}")
        for name in names:
            assert name not in diophlab.__all__
            assert not hasattr(diophlab, name)
            assert not hasattr(mod, name)
    assert not hasattr(CountingKernel, "count_up_to")
    assert not hasattr(CountingKernel, "_shell_counts")
    assert not hasattr(CountingKernel(P11, 0, 2), "block_of")
    # the experiments count both signs; only ``count`` takes a convention
    assert not hasattr(Convention, "share")
    assert "convention" not in {f.name for f in dataclasses.fields(ExperimentConfig)}


def test_readme_cli_examples_parse():
    # every command line of the README's CLI block; a "[...]" token is optional
    # and the line parses with it and without it
    block = re.search(r"^## CLI\n\n```\n(.*?)^```", README.read_text(), re.S | re.M).group(1)
    lines = [line.split()[1:] for line in block.splitlines() if line.startswith("diophlab ")]
    assert len(lines) >= 7
    for argv in lines:
        assert parse_args([a.strip("[]") for a in argv]).subcommand == argv[0]
        assert parse_args([a for a in argv if not a.startswith("[")]).subcommand == argv[0]


def test_readme_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
