"""The demos run end to end and print their headline numbers."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

HEADLINES = {
    "backward_orbit_equidistribution.py": [
        "  depth 8:  256 atoms,  max | |y|^2 - 1 | = 0.00862,  displacement <= 8.7e-19",
        "  W(mu_2, mu_4) = 0.46123 +- 4.7e-10",
        "  W(mu_4, mu_6) = 0.11881 +- 4.7e-10",
        "  W(mu_6, mu_8) = 0.02976 +- 4.7e-10",
        "  wrote backward_orbit_z2.csv (256 atoms)",
        "  depth 9: 512 atoms, all real, Kolmogorov distance to arccos(-t/2)/pi:  0.00098",
    ],
    "equilibrium_verification.py": [
        "  | sum 1/J - 1 | at 1/3+2/5*i:  0.00e+00",
        "  delta at the repelling fixed point 1: residual >= 1.000  => member: False",
        "  depth-6 orbit measure, mesh = 0.0292: member within slack: True",
        "  invariance residual W(mu, T_* mu) = 0.0584",
        "  integral log J dmu  >= 0.693147",
        "  gap = 8.71e-14  (equality case of the variational principle)",
        "  Rokhlin bound: 0.0000  (zero entropy on a periodic orbit)",
        "  constant witnesses cancel exactly: pass = True, gap = 0.00e+00",
    ],
    "pressure_certification.py": [
        "  P(z^2, 0) in [0.6931471806, 0.6931471806]  (N=1, anchor=0/1+1/1*i)",
        "  P(z^2-2, 0) in [0.6931471806, 0.6931471806]  (N=1, anchor=0/1+0/1*i)",
        "  P(z^2,  1/2) - P(z^2, 0) encloses  1/2: True",
        "  P(z^2, sigma(.,0)) ~ 2.107361  [mode=empirical, N=2]  <-- NOT certified",
        "  L^4(1)(3) = 16 +- 0   (2^4 leaves)",
    ],
    "subdivision_tilings.py": [
        "  tile counts by level: [2, 12, 72, 432, 2592]",
        "  max tile diameters: 1.0000  0.5774  0.3469  0.2103  0.1277",
        "    level 3 -> level 2: exact = True",
        "  tile counts by level: [2, 16, 128, 1024, 8192]",
        "  max tile diameters: 1.0000  0.5449  0.3172  0.1802  0.1043",
        "     constant ratio ['1/3'] = local degree / 6",
        "  wrote tile_measure_g1_level3.csv (432 barycenters)",
    ],
    "transport_geometry.py": [
        "  W(delta_0 vs delta_1) = 1.4142135624   (closed form 1.4142135624)",
        "  W(uniform{0,1} vs delta_0) = 0.7071067812   (closed form 0.7071067812)",
        "  LP value  = 72010766960321/70368744177664",
        "  brute min = 72010766960321/70368744177664",
        "  dual certificate verifies: True",
        "  optimal plan: {(0, 0): '1/2', (1, 1): '1/2'}",
        "  W(level-2 tiles, level-1 tiles) = 0.11614 +- 1.5e-11",
    ],
}


@pytest.mark.parametrize("demo", sorted(HEADLINES))
def test_demo_prints_its_headlines(demo, tmp_path):
    # The backward-orbit and tiling demos write CSVs into the working directory.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    run = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    for line in HEADLINES[demo]:
        assert line in lines
    if demo.startswith("backward_orbit"):
        assert len((tmp_path / "backward_orbit_z2.csv").read_text().splitlines()) == 257
