"""Benchmark: segment cleaning overheads (paper Table 4).

Runs the experiment once and asserts its virtual-time rows against
the paper's shape; the rows are saved to results/.
"""

from repro.bench import exp_table4


def test_table4_cleaning_overheads():
    result = exp_table4()
    print()
    print(result.render())
    result.save()
    assert result.passed(), "\n".join(
        check.render() for check in result.failures())
