"""Benchmark: impact of snapshot creation on write latency (paper Figure 7).

Runs the experiment once and asserts its virtual-time rows against
the paper's shape; the rows are saved to results/.
"""

from repro.bench import exp_fig7


def test_fig7_create_impact():
    result = exp_fig7()
    print()
    print(result.render())
    result.save()
    assert result.passed(), "\n".join(
        check.render() for check in result.failures())
