"""The CLI sweep of scripts/cli_sweep.py against tests/cli_sweep.json: exit
code, stdout and stderr of every verb on every bundled file, as text, as JSON
and with the max tie-break.  The calls run forward and then reversed in one
process, so a report that changes, or a call that leans on state an earlier
call left, fails here."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWEEP = ROOT / "scripts" / "cli_sweep.py"
RECORDED = Path(__file__).resolve().parent / "cli_sweep.json"


def load_sweep():
    spec = importlib.util.spec_from_file_location("cli_sweep", SWEEP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_cli_call_matches_the_recorded_sweep_forward_and_reversed():
    sweep = load_sweep()
    recorded = json.loads(RECORDED.read_text(encoding="utf-8"))
    calls = sweep.calls()
    assert len(calls) == 168
    assert sorted(sweep.call_key(*call) for call in calls) == sorted(recorded)
    for order in (calls, calls[::-1]):
        for call in order:
            key = sweep.call_key(*call)
            assert sweep.run_call(*call) == recorded[key], key
