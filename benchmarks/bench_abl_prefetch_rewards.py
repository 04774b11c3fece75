"""Ablation: demand/prefetch reward differentiation disabled

Beyond-the-paper design-choice study (see DESIGN.md); regenerated
through the experiment registry with the table saved under
benchmarks/results/.
"""


def test_abl_prefetch_rewards(regenerate):
    result = regenerate("abl_prefetch_rewards")
    assert len(result.rows) == 2
