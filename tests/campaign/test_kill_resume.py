"""Integration: a campaign process SIGKILLed mid-flight resumes exactly.

Unlike the in-process resume tests, this drives the real CLI in a
subprocess, kills it -9 at roughly half completion (so the journal's
fsync-per-record durability is what's actually under test), resumes
with ``--resume``, and checks the final verdict matches an
uninterrupted campaign.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

CAMPAIGN_ARGS = [
    "campaign",
    "--algorithms", "tests.campaign.faulty:slow_coloring",
    "--ns", "8",
    "--inputs", "random",
    "--schedules", "sync,bernoulli",
    "--seeds", "30",  # 60 tasks x ~20ms startup each
    "--backend", "pool",
    "--workers", "2",
    "--json",
]


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def processes_mentioning(text):
    """Pids of live processes whose command line contains ``text``."""
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        if text.encode() in cmdline:
            pids.append(int(entry.name))
    return pids


def run_cli(args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli"] + args,
        cwd=REPO_ROOT, env=cli_env(), capture_output=True, text=True, **kw
    )


@pytest.mark.slow
def test_sigkill_then_resume_matches_uninterrupted(tmp_path):
    journal = tmp_path / "campaign.jsonl"

    # Baseline: uninterrupted campaign.
    baseline = run_cli(CAMPAIGN_ARGS + ["--journal", str(tmp_path / "base.jsonl")])
    assert baseline.returncode == 0, baseline.stderr
    base_report = json.loads(baseline.stdout)["report"]
    assert base_report["runs"] == 60

    # Start the same campaign, SIGKILL it mid-flight.
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli"]
        + CAMPAIGN_ARGS + ["--journal", str(journal)],
        cwd=REPO_ROOT, env=cli_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    # Wait until roughly half the journal exists, then kill -9.
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if journal.exists():
            lines = journal.read_text().count("\n")
            if lines >= 25:  # header + ~40% of 60 records
                break
        if proc.poll() is not None:  # finished too fast — still a pass path
            break
        time.sleep(0.02)
    proc.send_signal(signal.SIGKILL)
    proc.wait(timeout=30)

    # The killed campaign's pool workers (forked, so they carry its
    # command line) notice their parent is gone and exit.
    if Path("/proc").is_dir():
        deadline = time.monotonic() + 15
        while processes_mentioning(str(journal)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert processes_mentioning(str(journal)) == [], "pool workers outlived their parent"

    journaled = journal.read_text().count("\n") - 1
    assert journaled < 60, "kill landed too late to exercise resume"

    # Resume: only the unfinished tasks run; final report matches.
    resumed = run_cli(CAMPAIGN_ARGS + ["--journal", str(journal), "--resume"])
    assert resumed.returncode == 0, resumed.stderr
    payload = json.loads(resumed.stdout)
    assert payload["summary"]["skipped"] >= journaled - 1  # torn line tolerated
    assert payload["summary"]["skipped"] + payload["summary"]["executed"] == 60
    assert payload["report"] == base_report
    assert payload["all_ok"] is True
