"""Benchmark: GC cold-data segregation (paper §5.4.2 policy sketch).

Runs the experiment once and asserts its virtual-time rows against
the expected shape; the rows are saved to results/.
"""

from repro.bench import exp_ablation_cold_segregation


def test_ablation_cold_segregation():
    result = exp_ablation_cold_segregation()
    print()
    print(result.render())
    result.save()
    assert result.passed(), "\n".join(
        check.render() for check in result.failures())
