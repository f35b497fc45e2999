"""The studies reproduce the recorded golden numbers to 1e-10 relative."""

import json

import numpy as np
import pytest

import golden


@pytest.fixture(scope="module")
def computed():
    return golden.records()


def test_records_match_golden_file(computed):
    expected = json.loads(golden.PATH.read_text())
    values, _ = computed
    assert values.keys() == expected.keys()
    for study, want in expected.items():
        got = values[study]
        if isinstance(want, dict):
            assert got.keys() == want.keys()
            pairs = [(f"{study} {key}", got[key], want[key]) for key in want]
        else:
            pairs = [(study, got, want)]
        for name, g, w in pairs:
            np.testing.assert_allclose(np.array(g), np.array(w), rtol=1e-10,
                                       atol=0.0, err_msg=name)


def test_roundoff_diagnostics_within_thresholds(computed):
    _, roundoff = computed
    assert len(roundoff) == 4 * len(golden.FAMILIES)
    for d in roundoff:
        assert d.passed, f"{d.name}: {d.value:.3e} > {d.threshold:.1e}"
