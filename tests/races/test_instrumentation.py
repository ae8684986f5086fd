"""The data path really calls into the race runtime when it is armed.

Every instrumented access is gated on ``races.enabled``; if a refactor
drops the ``races.note`` calls from the write path the detector goes
blind without any test failing.  Counting the notes a few writes make
pins the instrumentation in place.
"""

from repro.races import runtime

from tests.conftest import make_iosnap


def test_writes_reach_the_race_runtime(kernel, monkeypatch):
    notes = []
    monkeypatch.setattr(runtime, "note",
                        lambda _kernel, key, kind="w": notes.append(key))
    monkeypatch.setattr(runtime, "enabled", True)
    device = make_iosnap(kernel)
    for lba in range(8):
        device.write(lba, b"x")
    assert any(key.startswith("log.head:") for key in notes)
    assert any(key.startswith("ftl.map:") for key in notes)
