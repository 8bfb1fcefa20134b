"""Golden-regression fixtures for the paper-artefact generators.

The rendered output of small pinned fig4/fig5/table3 runs is committed
under ``tests/fixtures/golden/``; the tests assert byte-identical
output.  Any behavioural drift in the simulator — router arbitration,
slot allocation, energy accounting, RNG consumption order — shows up
here as a diff of the actual table, which is far easier to act on than
a failed statistical bound.

To regenerate after an INTENDED behaviour change:

    PYTHONPATH=src python tests/harness/test_golden_regression.py --regen

and commit the updated fixtures together with the change that caused
them.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "fixtures" / "golden"

#: The experiment runs are pinned: explicit seeds, reduced
#: pattern/rate/benchmark grids, and REPRO_SCALE fixed to 0.1 so the
#: fixtures stay cheap enough for tier-1.
PINNED_SCALE = "0.1"


def _fig4_small() -> str:
    from repro.harness import experiments
    return experiments.fig4(patterns=("transpose",),
                            schemes=("packet_vc4", "hybrid_tdm_vc4"),
                            rates=(0.1, 0.3), seed=1).text


def _fig5_small() -> str:
    from repro.harness import experiments
    return experiments.fig5(patterns=("tornado",), rates=(0.15,),
                            seed=1).text


def _table3_small() -> str:
    from repro.harness import experiments
    return experiments.table3(gpu_benchmarks=("BLACKSCHOLES", "STO"),
                              seed=3).text


CASES = {
    "fig4_small.txt": _fig4_small,
    "fig5_small.txt": _fig5_small,
    "table3_small.txt": _table3_small,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output_is_byte_identical(name, monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", PINNED_SCALE)
    fixture = GOLDEN_DIR / name
    assert fixture.exists(), (
        f"missing golden fixture {fixture}; regenerate with "
        f"PYTHONPATH=src python {__file__} --regen")
    expected = fixture.read_text()
    actual = CASES[name]()
    assert actual == expected, (
        f"{name} drifted from the committed golden output; if the "
        f"change is intended, regenerate with --regen and commit the "
        f"new fixture")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output_is_byte_identical_under_legacy_engine(
        name, monkeypatch):
    """The legacy oracle must regenerate every committed artefact
    byte-for-byte too, so the fixtures are pinned on both engines: they
    double as an end-to-end engine-equivalence oracle over the full
    experiment pipeline (``fig4``'s sweeps, ``fig5``'s energy
    accounting, ``table3``'s hetero system), which no synthetic verify
    workload covers in one piece.  The ``REPRO_ENGINE`` override
    reaches every ``Simulator`` the experiments construct without
    threading a parameter through them.
    """
    monkeypatch.setenv("REPRO_SCALE", PINNED_SCALE)
    monkeypatch.setenv("REPRO_ENGINE", "legacy")
    fixture = GOLDEN_DIR / name
    assert fixture.exists(), (
        f"missing golden fixture {fixture}; regenerate with "
        f"PYTHONPATH=src python {__file__} --regen")
    expected = fixture.read_text()
    actual = CASES[name]()
    assert actual == expected, (
        f"{name} under engine=legacy drifted from the committed golden "
        f"output — the fast and legacy engines are not bit-equivalent "
        f"on this experiment pipeline")


def _regenerate() -> None:
    os.environ["REPRO_SCALE"] = PINNED_SCALE
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, fn in sorted(CASES.items()):
        out = fn()
        (GOLDEN_DIR / name).write_text(out)
        print(f"wrote {GOLDEN_DIR / name} ({len(out)} bytes)")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
