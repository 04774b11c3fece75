"""Ablation: CHROME with the bypass action removed

Beyond-the-paper design-choice study (see DESIGN.md); regenerated
through the experiment registry with the table saved under
benchmarks/results/.
"""


def test_abl_bypass(regenerate):
    result = regenerate("abl_bypass")
    variants = set(result.column("variant"))
    assert variants == {"chrome", "chrome-nobypass"}
