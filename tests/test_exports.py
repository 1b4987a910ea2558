import re
import types
from dataclasses import fields
from pathlib import Path

import workrest
from workrest.engine import SlotReport
from workrest.population import CSV_HEADER
from workrest.sweep import PER_SLOT_HEADER, REPORT_HEADER, SWEEP_HEADER, ReportRow, SweepRow

README = Path(__file__).resolve().parent.parent / "README.md"
SOURCE = README.parent / "src" / "workrest"


def test_readme_library_use_lists_every_public_name():
    section = README.read_text().split("## Library use", 1)[1]
    paragraph = section.split("```", 1)[0]
    listed = re.findall(r"`(\w+)`", paragraph)
    public = [
        name for name, value in vars(workrest).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(public)


def test_readme_file_formats_state_every_header():
    section = README.read_text().split("### File formats", 1)[1].split("\n## ", 1)[0]
    stated = re.findall(r"`(\w+(?:,\w+)+)`", section)
    headers = (CSV_HEADER, SWEEP_HEADER, PER_SLOT_HEADER, REPORT_HEADER)
    assert stated == [",".join(header) for header in headers]


def test_each_table_header_has_a_column_per_row_field():
    # the writers format a row type's fields in order, so a field added to a
    # row type fails here until its header names it
    assert len(PER_SLOT_HEADER) == len(fields(SlotReport))
    assert len(SWEEP_HEADER) == len(fields(SweepRow))
    assert len(REPORT_HEADER) == len(fields(ReportRow)) + 1  # then the region property


def test_source_lines_are_at_most_100_characters():
    paths = sorted(SOURCE.glob("*.py"))
    long = [f"{path.name}:{number}" for path in paths
            for number, line in enumerate(path.read_text().splitlines(), 1) if len(line) > 100]
    assert paths and long == []


def test_source_lines_stay_within_their_ceiling():
    # The line count of src/workrest, pinned where the last change left it so that
    # src/ keeps or shrinks. A change that must grow src/ raises this ceiling and
    # argues the new figure in CHANGES.md, as TestCallBudget's figures are; one
    # that shrinks src/ lowers it to the new count.
    total = sum(len(path.read_text().splitlines()) for path in SOURCE.glob("*.py"))
    assert total <= 1408
