"""The activation sweep along the unsteerability boundary against the exact
boundary eta = (2/3)(1 - omega) (sympy): at every grid point the sources are
unsteerable both ways, and the eta column should lie within one ulp of the
boundary at that grid point's omega."""

import json
import math

import numpy as np
import pytest
import sympy as sp

from netsteer.certificates import _dew_unsteerable
from netsteer.cli import main

from exact_oracles import OMEGA, eta_boundary_exact

# n, omega range and steps of `activation --eta-boundary` runs: the full range
# twice, and the window around the n = 8 activation threshold
GRIDS = [(3, 0.0, 1.0, 101), (5, 0.0, 1.0, 1001), (8, 0.80, 0.95, 151)]


def _records(n, lo, hi, steps, tmp_path):
    out = tmp_path / "act.json"
    argv = ["activation", "--n", str(n), "--eta-boundary", "--omega-min", str(lo),
            "--omega-max", str(hi), "--omega-steps", str(steps),
            "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    records = json.loads(out.read_text())["records"]
    assert len(records) == steps
    return records


def test_criterion_is_exactly_one_on_the_boundary():
    assert sp.expand(sp.Rational(3, 2) * eta_boundary_exact(OMEGA) + OMEGA) == 1


@pytest.mark.parametrize("n,lo,hi,steps", GRIDS)
def test_sources_on_the_boundary_are_unsteerable(n, lo, hi, steps, tmp_path):
    records = _records(n, lo, hi, steps, tmp_path)
    etas = np.array([rec["eta"] for rec in records])
    omegas = np.array([rec["omega"] for rec in records])
    assert _dew_unsteerable(etas, omegas).all()
    assert all(rec["source_unsteerable"] for rec in records)


# run_activation computes the boundary as (2.0 / 3.0) * (1.0 - omega), with two
# roundings: on the full range it is up to 1.33 ulp from the exact boundary
# (3 of 101 points, 22 of 1,001); in the window it is within 0.67 ulp
TWO_ROUNDINGS = pytest.mark.xfail(strict=True, reason="eta up to 1.33 ulp from the boundary")


@pytest.mark.parametrize("n,lo,hi,steps", [pytest.param(*GRIDS[0], marks=TWO_ROUNDINGS),
                                           pytest.param(*GRIDS[1], marks=TWO_ROUNDINGS),
                                           GRIDS[2]])
def test_eta_column_is_within_one_ulp_of_the_boundary(n, lo, hi, steps, tmp_path):
    for rec in _records(n, lo, hi, steps, tmp_path):
        exact = eta_boundary_exact(sp.Rational(rec["omega"]))     # at the float omega, exactly
        assert abs(sp.Rational(rec["eta"]) - exact) <= math.ulp(float(exact)), rec
