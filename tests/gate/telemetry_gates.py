#!/usr/bin/env python3
"""Telemetry gates: drive offload_explorer and validate what it writes.

Four checks on three explorer runs in a scratch directory:

  trace     fft with --trace: the Chrome trace is well-formed, has the
            pipeline spans, instant events and pid-2 simulated-run lanes.
  audit     the same fft run's cost audit: valid, the components add up
            to the cut value, the predicted total is within 1% of the
            simulated one, and scheduling, communication and registration
            are exact on a noiseless link.
  adapt     a frame pipeline under a bandwidth collapse with the closed
            loop: the trace has a redispatch lane event with its args and
            the cost audit records a re-dispatch predicted to pay off.
  recovery  a stateful pipeline through a server crash and restart: the
            trace has the crash, fallback, restart, probe, ledger-sync and
            re-offload events and the audit's recovery section agrees.

Usage: telemetry_gates.py <offload_explorer> <dir with pipeline.mc and
stateful.mc>. Exits nonzero on the first failed assertion. Registered as
the ctest `telemetry_gates` (label `gate`): ctest -L gate.
"""

import json
import os
import subprocess
import sys
import tempfile


def explore(explorer, *args):
    subprocess.run([explorer, *args], check=True, stdout=subprocess.DEVNULL)


def check_trace():
    with open("fft_trace.json") as f:
        trace = json.load(f)
    events = trace["traceEvents"]
    assert events, "trace has no events"
    phases = {e["name"] for e in events if e["ph"] == "X"}
    for span in ["pipeline.compile", "lang.parse", "tcfg.build",
                 "partition.solve", "interp.run"]:
        assert span in phases, f"missing span {span}"
    assert any(e["ph"] == "i" for e in events), "no instant events"
    lanes = {e["tid"] for e in events
             if e["ph"] == "X" and e.get("pid") == 2}
    assert lanes, "no simulated-run lane events under pid 2"
    print(f"{len(events)} events, {len(phases)} distinct spans, "
          f"{len(lanes)} run lanes: OK")


def check_audit():
    with open("fft_audit.json") as f:
        audit = json.load(f)
    assert audit["valid"], audit.get("note")
    assert audit["cut_matches_components"], \
        "component decomposition does not reproduce the cut value"
    total = audit["total"]
    assert abs(total["rel_error_pct"]) <= 1.0, \
        f"predicted vs simulated total off by {total['rel_error_pct']}%"
    for name in ["scheduling", "communication", "registration"]:
        comp = audit["components"][name]
        assert comp["exact"], f"{name} not exact on a noiseless link"
    print(f"total predicted {total['predicted']} vs actual "
          f"{total['actual']} ({total['rel_error_pct']}%): OK")


def check_adapt():
    with open("adapt_trace.json") as f:
        trace = json.load(f)
    marks = [e for e in trace["traceEvents"]
             if e["name"] == "redispatch"]
    assert marks, "no redispatch event in the Chrome trace"
    args = marks[0]["args"]
    for key in ["at_task", "from", "to",
                "predicted_stay", "predicted_switch"]:
        assert key in args, f"redispatch event lacks {key}"
    with open("adapt_audit.json") as f:
        audit = json.load(f)
    assert audit["valid"], audit.get("note")
    assert audit["redispatches"], "audit recorded no re-dispatch"
    ev = audit["redispatches"][0]
    assert ev["predicted_switch"] < ev["predicted_stay"], \
        "the switch was not predicted to pay off"
    print(f"{len(marks)} redispatch trace event(s), "
          f"audit at t={ev['at']}: OK")


def check_recovery():
    with open("recovery_trace.json") as f:
        trace = json.load(f)
    names = [e["name"] for e in trace["traceEvents"]]
    for needed in ["server-crash", "crash-fallback", "server-restart",
                   "probe", "ledger-sync", "re-offload"]:
        assert needed in names, f"no {needed} event in the Chrome trace"
    with open("recovery_audit.json") as f:
        audit = json.load(f)
    assert audit["valid"], audit.get("note")
    rec = audit["recovery"]
    assert rec["crashes"] == 1, "audit missed the crash"
    assert rec["restarts"] == 1, "audit missed the restart"
    assert rec["ledger_restores"] >= 1, "audit saw no ledger restore"
    assert rec["probes"] >= 1, "audit saw no probe"
    assert rec["reoffloads"] == 1, "audit missed the re-offload"
    assert rec["ledger_syncs"] >= 1 and rec["ledger_sync_bytes"] > 0, \
        "audit saw no ledger maintenance"
    print(f"trace events OK; audit: {rec['crashes']} crash, "
          f"{rec['probes']} probe(s), {rec['reoffloads']} re-offload: OK")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    explorer = os.path.abspath(sys.argv[1])
    programs = os.path.abspath(sys.argv[2])
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        explore(explorer, "fft", "--params", "4,256,8,0", "--run",
                "--trace=fft_trace.json", "--audit=fft_audit.json",
                "--stats")
        check_trace()
        check_audit()
        explore(explorer, os.path.join(programs, "pipeline.mc"),
                "--params", "16,32,1000", "--run", "--adapt=closed-loop",
                "--drift=at=200000,comm=64", "--trace=adapt_trace.json",
                "--audit=adapt_audit.json")
        check_adapt()
        explore(explorer, os.path.join(programs, "stateful.mc"),
                "--params", "16,32,1000", "--run", "--adapt=closed-loop",
                "--crash=at=900000,restart=940000",
                "--trace=recovery_trace.json",
                "--audit=recovery_audit.json")
        check_recovery()


if __name__ == "__main__":
    main()
