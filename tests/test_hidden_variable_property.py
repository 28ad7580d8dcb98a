"""Property tests of the hidden-variable source's 16-branch law against its closed forms."""

import pytest

from blgisim.audit import HiddenVariableConfig, hidden_variable_source
from blgisim.trials import NoiseModel, exact_chsh, exact_correlator
from reference import hidden_variable_exact_chsh

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

# thresholds at the ends of [0, 1] and repeated ones give empty intervals
THRESHOLDS = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
SIGNS = st.sampled_from([-1, 1])


@settings(max_examples=200, deadline=None)
@given(
    thresholds=st.tuples(*[THRESHOLDS] * 4),
    signs=st.tuples(*[SIGNS] * 4),
    v=st.floats(0.05, 1.0),
    bias=st.floats(-0.5, 0.5),
    sigma=st.floats(0.0, 1.0),
)
def test_hidden_variable_law_matches_closed_forms(thresholds, signs, v, bias, sigma):
    config = HiddenVariableConfig(thresholds, signs)
    noise = NoiseModel(bias=bias, sigma=sigma)
    source = hidden_variable_source(config, v, noise)
    assert min(source.law) >= 0.0
    assert abs(sum(source.law) - 1.0) <= 1e-15
    assert sum(p > 0.0 for p in source.law) <= 5
    assert abs(abs(exact_chsh(source)) - hidden_variable_exact_chsh(config, v, noise)) <= 1e-12
    t, s = thresholds, signs
    pair = s[2] * s[3] * (1.0 - 2.0 * abs(t[2] - t[3]))
    assert abs(exact_correlator(source, "beta1", "beta2") - pair) <= 1e-12
