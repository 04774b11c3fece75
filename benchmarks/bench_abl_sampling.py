"""Ablation: sampled-set training density sweep

Beyond-the-paper design-choice study (see DESIGN.md); regenerated
through the experiment registry with the table saved under
benchmarks/results/.
"""


def test_abl_sampling(regenerate):
    result = regenerate("abl_sampling")
    densities = result.column("sampled_sets")
    assert densities == sorted(densities)
