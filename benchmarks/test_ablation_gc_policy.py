"""Benchmark: greedy vs cost-benefit segment selection (design-choice ablation).

Runs the experiment once and asserts its virtual-time rows against
the expected shape; the rows are saved to results/.
"""

from repro.bench import exp_ablation_gc_policy


def test_ablation_gc_policy():
    result = exp_ablation_gc_policy()
    print()
    print(result.render())
    result.save()
    assert result.passed(), "\n".join(
        check.render() for check in result.failures())
