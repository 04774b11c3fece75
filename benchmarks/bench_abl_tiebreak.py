"""Ablation: cold-state arg-max tie-break direction

Beyond-the-paper design-choice study (see DESIGN.md); regenerated
through the experiment registry with the table saved under
benchmarks/results/.
"""


def test_abl_tiebreak(regenerate):
    result = regenerate("abl_tiebreak")
    assert len(result.rows) == 2
