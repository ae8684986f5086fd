"""Benchmark: snapshot activation latency (paper Figure 8).

Runs the experiment once and asserts its virtual-time rows against
the paper's shape; the rows are saved to results/.
"""

from repro.bench import exp_fig8


def test_fig8_activation_latency():
    result = exp_fig8()
    print()
    print(result.render())
    result.save()
    assert result.passed(), "\n".join(
        check.render() for check in result.failures())
