"""Extended baselines (random/SRRIP/DRRIP/SHiP++) vs CHROME

Beyond-the-paper design-choice study (see DESIGN.md); regenerated
through the experiment registry with the table saved under
benchmarks/results/.
"""


def test_extended_baselines(regenerate):
    result = regenerate("extended_baselines")
    assert "chrome" in result.column("scheme")
