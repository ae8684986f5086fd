"""Benchmark: write latency during snapshot-aware cleaning (paper Figure 10).

Runs the experiment once and asserts its virtual-time rows against
the paper's shape; the rows are saved to results/.
"""

from repro.bench import exp_fig10


def test_fig10_cleaner_interference():
    result = exp_fig10()
    print()
    print(result.render())
    result.save()
    assert result.passed(), "\n".join(
        check.render() for check in result.failures())
