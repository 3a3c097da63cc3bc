"""Cold-start import budget of the ExaAM scenarios.

scipy is a heavy optional dependency (about 0.45 s and 43 MB to import)
that only the real-mode material fit and the UQ calibration use, so it
is imported inside those two functions.  Building, running and
reporting E2–E4 must never load it; each case runs in a fresh
interpreter because the test process itself has scipy loaded by other
tests.
"""

import json
import os
import subprocess
import sys


def _run(code: str) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_exaam_scenarios_load_no_scipy():
    code = (
        "import json, sys\n"
        "import repro.exaam\n"
        "from repro.report.scenarios import execute, report\n"
        "for bench_id in ('E2', 'E3', 'E4'):\n"
        "    report(execute(bench_id, 'golden'))\n"
        "print(json.dumps({'scipy': sorted(\n"
        "    m for m in sys.modules if m.split('.')[0] == 'scipy')}))\n"
    )
    assert _run(code) == {"scipy": []}


def test_deferred_scipy_import_works_as_first_use():
    code = (
        "import json, sys\n"
        "import numpy as np\n"
        "from repro.exaam import (\n"
        "    calibrate_absorptivity, fit_material_model, rosenthal_meltpool)\n"
        "before = 'scipy' in sys.modules\n"
        "eps = np.linspace(0.001, 0.2, 40)\n"
        "fit = fit_material_model([(eps, 120.0 + 450.0 * eps**0.35)])\n"
        "powers, speeds = [200.0, 260.0, 320.0], [0.6, 0.8, 1.0]\n"
        "widths = [rosenthal_meltpool(p, v, absorptivity=0.4).width_m\n"
        "          for p, v in zip(powers, speeds)]\n"
        "cal = calibrate_absorptivity(widths, powers, speeds)\n"
        "print(json.dumps({'before': before, 'n': fit['n'],\n"
        "                  'eta': cal['absorptivity']}))\n"
    )
    result = _run(code)
    assert result["before"] is False
    assert abs(result["n"] - 0.35) < 0.01
    assert abs(result["eta"] - 0.4) < 0.01
