"""The process entry ``cli.run``: what ``python -m idseval.cli`` prints, writes and exits with.

``run`` flushes stdout and stderr and ends the process with ``os._exit``.
These tests start fresh interpreters and hold each outcome against an
in-process ``main(argv)`` and against an interpreter that exits normally;
a failed last flush is instead README's one ``error:`` line and exit 1.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from idseval import cli
from support import fresh_env

DEMO = Path(__file__).resolve().parents[1] / "data" / "demo"
MANIFEST = str(DEMO / "manifest.json")
LABELS = str(DEMO / "labels.csv")
OUT = ["--out", "out"]

RUNS = {
    "evaluate": ["evaluate", "--config", MANIFEST, *OUT],
    "evaluate-json": ["evaluate", "--config", MANIFEST, "--format", "json", *OUT],
    "compare": ["compare", "--config", MANIFEST, "--detector", "baseline:never",
                "--detector", "baseline:random:p=0.5", "--format", "csv", *OUT],
    "timeline": ["timeline", "--config", MANIFEST, "--detector", "baseline:random:p=0.1",
                 "--min-width", "60s", *OUT],
    "roc": ["roc", "--labels", LABELS, "--alerts", str(DEMO / "scored.jsonl"), "--auto", *OUT],
    "baseline": ["baseline", "--labels", LABELS, "--detector", "baseline:random:p=0.3", *OUT],
    "help": ["--help"],
    "verb-help": ["compare", "--help"],
    "usage-error": ["evaluate", "--bogus"],
    "unknown-metric": ["evaluate", "--config", MANIFEST, "--metrics", "nope", *OUT],
    "data-error": ["roc", "--config", MANIFEST, "--auto", *OUT],
}
EXIT_CODES = {"usage-error": 2, "unknown-metric": 2, "data-error": 1}
HAS_DEV_FULL = os.path.exists("/dev/full")


def artifacts(root: Path) -> dict[str, str]:
    """The sha256 of every file under ``root``, by relative path."""
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def fresh_cli(argv, cwd, unbuffered=None, **popen) -> subprocess.CompletedProcess:
    """``python -m idseval.cli ARGV`` in ``cwd``; stdout is block-buffered unless ``unbuffered``."""
    env = fresh_env(COLUMNS="80", IDSEVAL_OUT=None, PYTHONUNBUFFERED=unbuffered)
    return subprocess.run([sys.executable, "-m", "idseval.cli", *argv], cwd=cwd, env=env, **popen)


@contextmanager
def sink(kind: str, path: Path):
    """A child's stdout or stderr: a file at ``path``, a pipe whose read end is
    closed, ``/dev/full`` or a pipe to this process."""
    if kind == "file":
        with open(path, "wb") as handle:
            yield handle
    elif kind == "closed-pipe":
        read, write = os.pipe()
        os.close(read)
        try:
            yield write
        finally:
            os.close(write)
    elif kind == "dev-full":
        with open("/dev/full", "wb") as handle:
            yield handle
    else:
        yield subprocess.PIPE


@pytest.mark.parametrize("name", RUNS)
def test_module_run_matches_in_process_main(name, tmp_path, monkeypatch, capsys):
    argv = RUNS[name]
    fresh_dir, local_dir = tmp_path / "fresh", tmp_path / "local"
    fresh_dir.mkdir()
    local_dir.mkdir()
    done = fresh_cli(argv, fresh_dir, capture_output=True)

    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("IDSEVAL_OUT", raising=False)
    monkeypatch.chdir(local_dir)
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's --help and usage errors
        code = exc.code
    out, err = capsys.readouterr()

    assert code == EXIT_CODES.get(name, 0)
    assert (done.returncode, done.stdout.decode(), done.stderr.decode()) == (code, out, err)
    assert artifacts(fresh_dir) == artifacts(local_dir)
    if name == "help":
        assert out.startswith("usage: idseval")
        assert all(verb in out for verb in ("evaluate", "compare", "timeline", "roc", "baseline"))


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
def test_large_report_reaches_a_redirected_stdout(unbuffered, tmp_path):
    labels = tmp_path / "labels.csv"
    rows = (f"{t},{'dos' if t % 6 < 3 else 'benign'}" for t in range(24_000))
    labels.write_text("timestamp,label\n" + "\n".join(rows) + "\n", encoding="utf-8")
    argv = ["evaluate", "--labels", str(labels), "--detector", "baseline:random:p=0.5",
            "--metrics", "f1,detection-delay", "--format", "json", *OUT]
    with open(tmp_path / "stdout", "wb") as handle:
        done = fresh_cli(argv, tmp_path, unbuffered, stdout=handle, stderr=subprocess.PIPE)
    assert done.returncode == 0, done.stderr
    report = (tmp_path / "out" / "report.json").read_bytes()
    assert len(report) > 256 * 1024  # 4000 scenario rows
    assert (tmp_path / "stdout").read_bytes() == report


@pytest.mark.parametrize(
    "kind,reason",
    [
        ("closed-pipe", "[Errno 32] Broken pipe"),
        pytest.param("dev-full", "[Errno 28] No space left on device",
                     marks=pytest.mark.skipif(not HAS_DEV_FULL, reason="needs /dev/full")),
    ],
)
def test_unwritable_stdout_keeps_its_error_and_exit_code(kind, reason, tmp_path):
    """Unbuffered, a write fails where it is made: ``roc``'s in its verb, the
    help text's in argparse. Each ends as one ``error:`` line and exit 1."""
    runs = {"roc": RUNS["roc"], "help": RUNS["help"], "verb-help": ["evaluate", "--help"]}
    with sink(kind, tmp_path / "stdout") as stdout:
        done = {
            name: fresh_cli(argv, tmp_path, "1", stdout=stdout, stderr=subprocess.PIPE)
            for name, argv in runs.items()
        }
    for name in runs:
        assert (done[name].returncode, done[name].stderr.decode()) == (1, f"error: {reason}\n")
    assert sorted(artifacts(tmp_path / "out")) == ["alerts/scored.jsonl", "roc.csv"]


@pytest.mark.skipif(not HAS_DEV_FULL, reason="needs /dev/full")
@pytest.mark.parametrize("name", ["unknown-metric", "data-error"])
def test_unwritable_stderr_keeps_the_exit_code(name, tmp_path):
    """The ``error:`` line is lost, not the run's exit code, and stdout stays empty."""
    with sink("dev-full", tmp_path / "stderr") as stderr:
        done = fresh_cli(RUNS[name], tmp_path, stdout=subprocess.PIPE, stderr=stderr)
    assert (done.returncode, done.stdout) == (EXIT_CODES[name], b"")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("verb", ["evaluate", "compare"])
def test_closed_stdout_still_writes_the_report_and_exits_0(verb, tmp_path):
    done = fresh_cli(
        RUNS[verb], tmp_path, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        preexec_fn=lambda: os.close(1),
    )
    # compare's baseline:never warns on stderr.
    never = b"warning: baseline:never: detector never alarms; recall-style metrics will be 0\n"
    assert (done.returncode, done.stderr) == (0, never if verb == "compare" else b"")
    report = "report.md" if verb == "evaluate" else "comparison.csv"
    assert report in artifacts(tmp_path / "out")


# A main that prints ``body`` and returns ``code``, ended by ``run()`` or by
# the normal exit.
PROGRAM = """\
import sys
from idseval import cli

def main():
    {body}
    return {code}

cli.main = main
{ending}
"""
SIX_KB = "print('x' * 6000, end='')"  # more than a 4 KiB buffer holds, less than an 8 KiB chunk


@pytest.mark.parametrize(
    "body,code,stdout,stderr",
    [
        ("print('x' * 100)", 3, "file", "pipe"),
        (SIX_KB, 0, "file", "pipe"),
        ("sys.exit('stopped')", 0, "file", "pipe"),
        ("raise SystemExit", 5, "file", "pipe"),
        ("sys.exit(4)", 0, "closed-pipe", "pipe"),
    ],
)
def test_run_ends_as_a_normal_exit_would(body, code, stdout, stderr, tmp_path):
    outcomes = []
    for ending in ("cli.run()", "raise SystemExit(cli.main())"):
        program = PROGRAM.format(body=body, code=code, ending=ending)
        with sink(stdout, tmp_path / "stdout") as out, sink(stderr, tmp_path / "stderr") as err:
            done = subprocess.run(
                [sys.executable, "-c", program], stdout=out, stderr=err,
                env=fresh_env(PYTHONUNBUFFERED=None),
            )
        written = (tmp_path / "stdout").read_bytes() if stdout == "file" else None
        outcomes.append((done.returncode, written, done.stderr))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize(
    "body,code,stdout,stderr,reason",
    [
        # The bytes stay in the buffer until the last flush.
        ("print('x' * 100)", 0, "closed-pipe", "pipe", "[Errno 32] Broken pipe"),
        # More than the pipe's buffer: the last flush writes them straight through.
        (SIX_KB, 0, "closed-pipe", "pipe", "[Errno 32] Broken pipe"),
        pytest.param(SIX_KB, 3, "dev-full", "pipe", "[Errno 28] No space left on device",
                     marks=pytest.mark.skipif(not HAS_DEV_FULL, reason="needs /dev/full")),
        # stderr cannot take the error line either; the exit code still tells.
        pytest.param("print('y' * 100, end='', file=sys.stderr)", 0, "file", "dev-full", None,
                     marks=pytest.mark.skipif(not HAS_DEV_FULL, reason="needs /dev/full")),
    ],
)
def test_run_reports_a_failed_flush_as_an_io_error(body, code, stdout, stderr, reason, tmp_path):
    """A failed last flush is README's one ``error:`` line and exit code 1,
    where a normal exit would print the interpreter's report and exit 120."""
    program = PROGRAM.format(body=body, code=code, ending="cli.run()")
    with sink(stdout, tmp_path / "stdout") as out, sink(stderr, tmp_path / "stderr") as err:
        done = subprocess.run(
            [sys.executable, "-c", program], stdout=out, stderr=err,
            env=fresh_env(PYTHONUNBUFFERED=None),
        )
    assert done.returncode == 1
    if reason is not None:
        assert done.stderr.decode() == f"error: {reason}\n"


@pytest.mark.parametrize(
    "kind,reason",
    [
        ("closed-pipe", "[Errno 32] Broken pipe"),
        pytest.param("dev-full", "[Errno 28] No space left on device",
                     marks=pytest.mark.skipif(not HAS_DEV_FULL, reason="needs /dev/full")),
    ],
)
@pytest.mark.parametrize("verb", ["roc", "evaluate"])
def test_buffered_unwritable_stdout_is_one_error_line(verb, kind, reason, tmp_path):
    """The output fits the buffer, so the write fails only in ``run``'s last flush."""
    with sink(kind, tmp_path / "stdout") as stdout:
        done = fresh_cli(RUNS[verb], tmp_path, stdout=stdout, stderr=subprocess.PIPE)
    assert (done.returncode, done.stderr.decode()) == (1, f"error: {reason}\n")
    expected = {
        "roc": ["alerts/scored.jsonl", "roc.csv"],
        "evaluate": ["alerts/lagged.jsonl", "report.md"],
    }
    assert sorted(artifacts(tmp_path / "out")) == expected[verb]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
def test_runs_leave_nothing_for_finalization(tmp_path):
    """No verb registers an ``atexit`` handler, starts a thread or leaves a file open."""
    verbs = [RUNS[name] for name in ("evaluate", "compare", "timeline", "roc", "baseline")]
    program = f"""\
import atexit, os, sys
handlers = atexit._ncallbacks()
from idseval import cli
fds = os.listdir("/proc/self/fd")
codes = [cli.main(argv) for argv in {verbs!r}]
print(codes, atexit._ncallbacks() - handlers, len(os.listdir("/proc/self/task")),
      os.listdir("/proc/self/fd") == fds, file=sys.stderr)
"""
    done = subprocess.run(
        [sys.executable, "-c", program], cwd=tmp_path, capture_output=True, text=True,
        env=fresh_env(OPENBLAS_NUM_THREADS=None, IDSEVAL_OUT=None),
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr.splitlines()[-1] == "[0, 0, 0, 0, 0] 0 1 True"
