"""Summary of tools/coldstall.py on fixed inputs; no child processes."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "coldstall.py"
_spec = importlib.util.spec_from_file_location("coldstall", _PATH)
coldstall = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(coldstall)


def _child(first_expm_s, *ratios, scipy_loaded=False):
    return {"first_expm_s": first_expm_s, "scipy_loaded": scipy_loaded,
            "rounds": [{"fixed": 1.0, "doubling": 0.1, "expm": r}
                       for r in ratios]}


def test_summary_counts_rounds_at_or_above_half_of_fixed():
    out = coldstall.summarize([_child(1e-3, 0.2, 0.5, 0.1),
                               _child(3e-3, 0.3, 0.3, 1.6),
                               _child(2e-3, 0.1, 0.2, 0.49)])
    assert out["procs"] == 3 and out["rounds"] == 9
    assert out["stalled_rounds"] == 2 and out["procs_with_stall"] == 2
    assert out["ratio_max"] == 1.6 and out["ratio_median"] == 0.3
    assert out["first_expm_ms_median"] == 2.0
    assert out["first_expm_ms_max"] == 3.0
    assert out["scipy_loaded"] is False
    assert coldstall.summarize([_child(1e-3, 0.1, scipy_loaded=True)])[
        "scipy_loaded"] is True
