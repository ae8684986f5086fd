"""Benchmark: sustained bandwidth as snapshots accumulate (paper Figure 12).

Runs the experiment once and asserts its virtual-time rows against
the paper's shape; the rows are saved to results/.
"""

from repro.bench import exp_fig12


def test_fig12_sustained_bandwidth():
    result = exp_fig12()
    print()
    print(result.render())
    result.save()
    assert result.passed(), "\n".join(
        check.render() for check in result.failures())
