"""Benchmark: read latency during rate-limited activation (paper Figure 9).

Runs the experiment once and asserts its virtual-time rows against
the paper's shape; the rows are saved to results/.
"""

from repro.bench import exp_fig9


def test_fig9_activation_interference():
    result = exp_fig9()
    print()
    print(result.render())
    result.save()
    assert result.passed(), "\n".join(
        check.render() for check in result.failures())
