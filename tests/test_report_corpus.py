"""scripts/report_corpus.py --compare: entry-by-entry comparison of a new
report corpus with a base one, naming the argv and the first differing
JSON path of each entry that differs."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("report_corpus", ROOT / "scripts" / "report_corpus.py")
report_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_corpus)


def _entry(argv, count, points, stderr=""):
    report = {"outputs": {"count": count, "solution_set": {"clusters": [{"point": p} for p in points]}}}
    return {"argv": argv, "exit": 0, "report": report, "stderr": stderr}


def _base():
    return [
        _entry(["basepoints", "cyclic-dim2", "--seed", "0"], 1, [[[1.0, 0.0], [0.5, -0.0]]]),
        _entry(["singular", "nodal-cubic", "--seed", "0"], 1, [[[0.0, 0.0]]]),
    ]


def test_first_difference_names_the_first_differing_path():
    base = _base()[0]
    assert report_corpus.first_difference(base, _base()[0]) is None
    moved = _base()[0]
    moved["report"]["outputs"]["solution_set"]["clusters"][0]["point"][1][1] = 0.0
    assert report_corpus.first_difference(moved, base) == ".report.outputs.solution_set.clusters[0].point[1][1]"
    longer = _base()[0]
    longer["report"]["outputs"]["solution_set"]["clusters"].append({"point": []})
    assert report_corpus.first_difference(longer, base) == ".report.outputs.solution_set.clusters[1]"
    extra = _base()[0]
    extra["report"]["notes"] = []
    assert report_corpus.first_difference(extra, base) == ".report.notes"
    assert report_corpus.first_difference(base, extra) == ".report.notes"
    typed = _base()[0]
    typed["report"]["outputs"]["count"] = 1.0  # 1 and 1.0 are different JSON
    assert report_corpus.first_difference(typed, base) == ".report.outputs.count"


def test_compare_lists_each_differing_entry_with_its_argv():
    base, new = _base(), _base()
    assert report_corpus.compare(new, base) == []
    new[1]["stderr"] = "warning"
    new.append(_entry(["jinv", "witness-C2", "--seed", "0"], 0, []))
    assert report_corpus.compare(new, base) == [
        "singular nodal-cubic --seed 0: differs at .stderr",
        "jinv witness-C2 --seed 0: only in the new corpus",
    ]


def test_main_writes_the_corpus_and_exits_1_on_a_difference(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(report_corpus, "corpus", _base)
    base = tmp_path / "base.json"
    base.write_text(json.dumps(_base(), indent=1) + "\n", encoding="utf-8")
    out = tmp_path / "out.json"
    assert report_corpus.main([str(out)]) == 0
    assert out.read_bytes() == base.read_bytes()
    assert report_corpus.main([str(out), "--compare", str(base)]) == 0
    changed = _base()
    changed[0]["exit"] = 1
    base.write_text(json.dumps(changed), encoding="utf-8")
    capsys.readouterr()
    assert report_corpus.main([str(out), "--compare", str(base)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == ["basepoints cyclic-dim2 --seed 0: differs at .exit", f"entries that differ from {base}: 1"]
