"""Benchmark: regular read/write operations, vanilla vs ioSnap (paper Table 2).

Runs the experiment once and asserts its virtual-time rows against
the paper's shape; the rows are saved to results/.
"""

from repro.bench import exp_table2


def test_table2_regular_ops():
    result = exp_table2()
    print()
    print(result.render())
    result.save()
    assert result.passed(), "\n".join(
        check.render() for check in result.failures())
