"""The knob census: every configuration field names its consumer.

DESIGN.md §5 holds one table row per ``IoSnapConfig`` field (default,
valid range, and the figure, ablation, rig axis, benchmark pin or test
that needs it).  A field added without a row, or a row left for a
deleted field, fails here.
"""

from dataclasses import fields
from pathlib import Path

import pytest

from repro.core.iosnap import IoSnapConfig

DESIGN = Path(__file__).resolve().parents[1] / "DESIGN.md"
HEADER = "| Field | Default | Valid range | Consumer |"


def census_rows():
    lines = DESIGN.read_text(encoding="utf-8").splitlines()
    start = lines.index(HEADER) + 2  # skip the |---| separator
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        assert len(cells) == 4, f"malformed census row: {line}"
        name = cells[0].strip("`")
        assert name not in rows, f"{name} listed twice"
        rows[name] = cells[1:]
    return rows


def test_census_lists_exactly_the_config_fields():
    assert set(census_rows()) == {f.name for f in fields(IoSnapConfig)}


def test_every_knob_names_a_consumer():
    for name, (default, valid, consumer) in census_rows().items():
        assert default and valid and consumer, f"{name}: empty cell"


@pytest.mark.parametrize("name", ["readahead_pages", "residue_cache_entries",
                                  "residue_cache_bytes", "bitmap_cow_ns"])
def test_negative_values_are_rejected(name):
    with pytest.raises(ValueError, match=name):
        IoSnapConfig(**{name: -1})
