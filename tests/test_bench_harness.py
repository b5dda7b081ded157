import importlib.util
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("harness", ROOT / "bench" / "harness.py")
harness = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(harness)


def test_alternate_swaps_which_tree_runs_first():
    calls = []

    def fake_run(tree, task):
        calls.append((tree, task))
        return {"tree": tree, "task": task}

    runs = harness.alternate(fake_run, {"before": "b", "after": "a"}, ("x", "y"), 3)
    forward = [("b", "x"), ("b", "y"), ("a", "x"), ("a", "y")]
    backward = forward[2:] + forward[:2]
    assert calls == forward + backward + forward
    assert runs["before"]["y"] == [{"tree": "b", "task": "y"}] * 3
    assert list(runs["after"]) == ["x", "y"]


@pytest.mark.parametrize("argv", [
    ["--before", "HEAD", "--repeats", "4", "--out", "report.json"],
    ["--before", "HEAD"],
    ["--out", "report.json"],
])
def test_main_rejects_too_few_repeats_and_missing_arguments(argv, tmp_path):
    def never(*args):
        raise AssertionError("nothing runs before the arguments are checked")

    with pytest.raises(SystemExit) as exc:
        harness.main(str(tmp_path / "bench.py"), "bench", ("x",), never, never, never, argv)
    assert exc.value.code == 2


def test_summary_uses_inclusive_quartiles():
    assert harness.summary([5.0, 1.0, 4.0, 2.0, 3.0]) == {
        "median_s": 3.0, "q1_s": 2.0, "q3_s": 4.0, "runs_s": [5.0, 1.0, 4.0, 2.0, 3.0]}


def test_extract_writes_the_revision_tree(tmp_path, monkeypatch):
    # a repository of its own, so that the test also runs in an exported tree
    repo, dest = tmp_path / "repo", tmp_path / "dest"
    init = repo / "src" / "coherify" / "__init__.py"
    init.parent.mkdir(parents=True)
    init.write_text("committed\n")
    git = ["git", "-C", str(repo), "-c", "user.name=test", "-c", "user.email=test@example.com"]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["add", "-A"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "one commit"], check=True)
    init.write_text("edited after the commit\n")
    monkeypatch.setattr(harness, "ROOT", repo)
    harness.extract("HEAD", dest)
    assert (dest / "src" / "coherify" / "__init__.py").read_text() == "committed\n"
