"""Benchmark: memory overheads of activation (paper Table 3).

Runs the experiment once and asserts its virtual-time rows against
the paper's shape; the rows are saved to results/.
"""

from repro.bench import exp_table3


def test_table3_activation_memory():
    result = exp_table3()
    print()
    print(result.render())
    result.save()
    assert result.passed(), "\n".join(
        check.render() for check in result.failures())
