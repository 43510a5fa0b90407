"""The malformed-file corpus, generated from the record declarations.

Every file the repo reads is a record in ``repro.bounds`` terms: ``--faults``
(:data:`repro.faults.schedule.FAULTS`), ``--jobs`` (:data:`repro.cli.JOB`),
checkpoint metadata (:data:`repro.ckpt.snapshot.META`, the recorder
included), the unified trace (:data:`repro.obs.chrome.TRACE`) and the replay
stream (:data:`repro.check.replay.STREAM_HEADER` / ``STREAM_EVENT``). Starting
from what each writer emits, every declared key is made missing (where it
may not be), of the wrong type, ``true`` for a number, NaN, ±inf (unless
its bound admits it) and just outside each end of its bound, and every
object gets an unknown key. Through the command that reads the file, each
case is one ``error:`` line naming the file or flag and the dotted key, a
non-zero exit and empty stdout; the replay stream, read by no command, is
one ``ValueError``. A wrong or missing version, a truncated and an empty
file are refused the same way. Then each writer's output reads back
unchanged, and an AST lint keeps every ``json.load`` under ``src/`` going
through :func:`~repro.bounds.read_record`.
"""

import ast
import json
import math
import re
import tempfile
from pathlib import Path

import pytest

import repro
from repro.bounds import Bound, Tagged, read_record
from repro.check.replay import (
    STREAM_EVENT,
    STREAM_HEADER,
    STREAM_SCHEMA,
    capture_stream,
    dump_stream,
    load_stream,
)
from repro.ckpt import Checkpoint, load_checkpoint, write_checkpoint
from repro.ckpt.snapshot import META
from repro.cli import JOB, main
from repro.core.osp import OSP
from repro.faults.schedule import EVENT_KINDS, FAULTS
from repro.harness.workloads import WorkloadConfig, timing_trainer
from repro.metrics.export import RECORDER, recorder_from_dict, recorder_to_dict
from repro.obs.chrome import TRACE, read_trace, trace_document, write_unified_trace

# ----------------------------------------------------------- the generator

_DELETE = object()


def _value_id(value):
    """A test id that names ``_DELETE`` the same on every run, not by its address."""
    return "<missing>" if value is _DELETE else repr(value)


def _ends(bound: Bound):
    """``(end, closed, step outward)`` for each finite end."""
    for end, bracket, step in ((bound.lo, bound.ends[0], -1), (bound.hi, bound.ends[1], 1)):
        if math.isfinite(end):
            yield end, bracket in "[]", step


def _bad_numbers(bound: Bound) -> list:
    values = [True, "1", math.nan]
    if not (bound.hi == math.inf and bound.ends[1] == "]"):
        values.append(math.inf)
    if not (bound.lo == -math.inf and bound.ends[0] == "["):
        values.append(-math.inf)
    for end, closed, step in _ends(bound):
        if not closed:
            values.append(end)
        elif bound.integer:
            values.append(int(end) + step)
        else:
            values.append(math.nextafter(end, step * math.inf))
    if bound.each:
        values = [[v] for v in values] + [0]  # a number where a list belongs
    return values if bound.optional else values + [None]


def _bad_values(kind) -> list:
    """Values ``kind`` refuses, chosen from its declaration."""
    if isinstance(kind, Bound):
        return _bad_numbers(kind)
    if isinstance(kind, frozenset):
        return [5, "no-such-name"]
    if isinstance(kind, (dict, Tagged)) or kind is dict:
        return [[]]
    if isinstance(kind, list) or kind is list:
        return [{}]
    if isinstance(kind, tuple):
        return ["x"]
    return {str: [5], bool: ["x", 1], float: ["x", True], object: []}[kind]


def _shape(kind):
    if isinstance(kind, list) or kind is list:
        return list
    return dict if isinstance(kind, (dict, Tagged)) or kind is dict else None


def _join(dotted: str, name: str) -> str:
    return f"{dotted}.{name}" if dotted else name


def cases(value, kind, steps=(), dotted=""):
    """``(dotted key, steps to it, bad value or _DELETE, refusal verb)`` for
    every declared key reachable from ``value``, a writer's output."""
    if isinstance(kind, tuple):
        kind = next((k for k in kind if _shape(k) is type(value)), None)
    if isinstance(kind, Tagged) and isinstance(value, dict):
        if kind.other is None:  # another tag would pick another record
            name = _join(dotted, kind.tag)
            yield name, (*steps, kind.tag), _DELETE, "is missing"
            for bad in _bad_values(frozenset(kind.records)):
                yield name, (*steps, kind.tag), bad, "must be"
        record = kind.records.get(value.get(kind.tag), kind.other)
        if isinstance(record, dict):
            record = {k: v for k, v in record.items() if k.rstrip("?") != kind.tag}
        kind = record
    if isinstance(kind, list) and isinstance(value, list):
        item = kind[0]
        if isinstance(item, Tagged):  # the first element of each tag
            firsts = {}
            for i, element in enumerate(value):
                firsts.setdefault(element.get(item.tag), i)
            indices = [i for tag, i in firsts.items() if tag in item.records]
        else:
            indices = [0] if value else []
        for i in indices:
            yield from cases(value[i], item, (*steps, i), f"{dotted}[{i}]")
    if not (isinstance(kind, dict) and isinstance(value, dict)):
        return
    for key, sub in kind.items():
        if key == "*":
            continue
        name = key.rstrip("?")
        for bad in _bad_values(sub):
            yield _join(dotted, name), (*steps, name), bad, "must be"
        if name in value:
            if not key.endswith("?"):
                yield _join(dotted, name), (*steps, name), _DELETE, "is missing"
            yield from cases(value[name], sub, (*steps, name), _join(dotted, name))
    if "*" in kind:
        declared = {key.rstrip("?") for key in kind}
        for other in [k for k in value if k not in declared][:1]:
            for bad in _bad_values(kind["*"]):
                yield f"{dotted}[{other!r}]", (*steps, other), bad, "must be"
            yield from cases(value[other], kind["*"], (*steps, other), f"{dotted}[{other!r}]")
    else:
        name = _join(dotted, "no_such_key")
        yield name, (*steps, "no_such_key"), 1, "is not a known key"


def mutated(payload, steps, value):
    """A copy of ``payload`` with the value at ``steps`` replaced (or
    deleted, for ``_DELETE``); the rest is shared."""
    if not steps:
        return value
    head, *rest = steps
    copy = list(payload) if isinstance(payload, list) else dict(payload)
    if rest:
        copy[head] = mutated(payload[head], rest, value)
    elif value is _DELETE:
        del copy[head]
    else:
        copy[head] = value
    return copy


def corpus(payload, record, prefix=""):
    """pytest params: one per generated case, its id the dotted key and value."""
    seen = set()
    for dotted, steps, bad, verb in cases(payload, record):
        label = prefix + (f"{dotted}=<missing>" if bad is _DELETE else f"{dotted}={bad!r}")
        if label not in seen:
            seen.add(label)
            yield pytest.param(mutated(payload, steps, bad), f"{dotted} {verb}", id=label)


def _one_error_line(capsys, code, want_code, prefix):
    captured = capsys.readouterr()
    assert code == want_code
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {prefix}"), (lines, prefix)


# ------------------------------------------------------------- the writers


def _traced_result():
    cfg = WorkloadConfig("vgg16-cifar10", n_workers=2, n_epochs=2, iterations_per_epoch=2,
                         sigma=0.1, seed=3)  # fmt: skip
    trainer = timing_trainer(cfg, OSP())
    trainer.enable_tracing()
    return trainer, trainer.run()


_TRACED = _traced_result()


def _checkpoint():
    with tempfile.TemporaryDirectory() as directory:
        trainer = timing_trainer(
            WorkloadConfig("vgg16-cifar10", n_workers=2, n_epochs=2, iterations_per_epoch=2),
            OSP(), checkpoint_every=1, checkpoint_dir=directory,
        )  # fmt: skip
        trainer.run()
        return load_checkpoint(Path(directory) / "ckpt-epoch0001.npz")


_CKPT = _checkpoint()

#: One full event of each kind, every field set, valid on a 2-worker run.
_EVENTS = {
    "loss_burst": {"start": 0.0, "duration": 1.0, "loss_rate": 0.05, "nodes": [0]},
    "bandwidth_dip": {"start": 0.0, "duration": 1.0, "factor": 0.5, "nodes": [0]},
    "link_flap": {"start": 0.0, "duration": 1.0, "nodes": [0]},
    "straggler": {"worker": 0, "start": 0.0, "duration": 1.0, "factor": 2.0},
    "worker_crash": {"worker": 0, "before_epoch": 1, "restart_epoch": 2, "recover": "cold"},
    "worker_join": {"worker": 1, "epoch": 1},
    "worker_leave": {"worker": 1, "epoch": 1},
}
_FAULT_PAYLOADS = [[{"kind": kind, **fields}] for kind, fields in _EVENTS.items()] + [
    {"events": [{"kind": "straggler", **_EVENTS["straggler"]}]}
]
_JOBS = [{"name": "a", "workload": "vgg16-cifar10", "sync": "bsp", "workers": 2, "epochs": 1,
          "iterations": 1, "seed": 0, "sigma": 0.1, "background": False}]  # fmt: skip
_SMALL = ["--workers", "2", "--epochs", "1", "--iterations", "1"]


def test_the_writers_output_is_what_the_corpus_starts_from():
    assert set(_EVENTS) == set(EVENT_KINDS)
    for payload in _FAULT_PAYLOADS:
        read_record(payload, FAULTS, "--faults")
    read_record(_JOBS, [JOB], "--jobs")
    assert set(_JOBS[0]) == {key.rstrip("?") for key in JOB}
    assert _CKPT.meta["early_stop"]["best_metric"] == -math.inf  # every fresh run's


# -------------------------------------------------------------- the corpus


@pytest.mark.parametrize(
    "payload, refusal",
    [
        case
        for payload in _FAULT_PAYLOADS
        for case in corpus(payload, FAULTS, f"{json.dumps(payload)[:24]}:")
    ],
)
def test_a_malformed_faults_value_is_one_error_line(payload, refusal, capsys):
    code = main(["run", *_SMALL, "--faults", json.dumps(payload)])
    _one_error_line(capsys, code, 1, f"--faults: {refusal}")


@pytest.mark.parametrize("payload, refusal", list(corpus(_JOBS, [JOB])))
def test_a_malformed_jobs_value_is_one_error_line(payload, refusal, capsys):
    code = main(["multirun", "--jobs", json.dumps(payload)])
    _one_error_line(capsys, code, 2, f"--jobs: {refusal}")


_CKPT_CASES = list(corpus(_CKPT.meta, META))


@pytest.mark.parametrize("meta, refusal", _CKPT_CASES)
def test_a_malformed_checkpoint_is_one_error_line(meta, refusal, tmp_path, capsys):
    path = write_checkpoint(Checkpoint(meta=meta, arrays=_CKPT.arrays), tmp_path / "c.npz")
    _one_error_line(capsys, main(["ckpt", "inspect", str(path)]), 1, f"{path}: {refusal}")


#: ``run --resume`` builds a trainer first: one value per key is enough there.
_RESUME_CASES = list({case.id.split("=")[0]: case for case in reversed(_CKPT_CASES)}.values())


@pytest.mark.parametrize("meta, refusal", _RESUME_CASES)
def test_a_malformed_checkpoint_is_refused_by_resume(meta, refusal, tmp_path, capsys):
    path = write_checkpoint(Checkpoint(meta=meta, arrays=_CKPT.arrays), tmp_path / "c.npz")
    code = main(["run", "--sync", "osp", *_SMALL, "--resume", str(path)])
    _one_error_line(capsys, code, 1, f"{path}: {refusal}")


_TRACE_DOC = json.loads(json.dumps(trace_document(_TRACED[1])))


@pytest.mark.parametrize("flags", [(), ("--compare",)], ids=["report", "compare"])
@pytest.mark.parametrize("doc, refusal", list(corpus(_TRACE_DOC, TRACE)))
def test_a_malformed_trace_is_one_error_line(flags, doc, refusal, tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    code = main(["report", *flags, *[str(path)] * (2 if flags else 1)])
    _one_error_line(capsys, code, 2, f"{path}: {refusal}")


_STREAM = capture_stream(*_TRACED)
_STREAM_LINES = [
    {"schema": STREAM_SCHEMA, "events": len(_STREAM)},
    {"kind": _STREAM[0].kind, "key": list(_STREAM[0].key), "value": list(_STREAM[0].value)},
]


@pytest.mark.parametrize(
    "line, record, n",
    [(0, STREAM_HEADER, 1), (1, STREAM_EVENT, 2)],
    ids=["header", "event"],
)
def test_a_malformed_stream_line_is_one_value_error(line, record, n, tmp_path):
    for doc, refusal in (p.values for p in corpus(_STREAM_LINES[line], record)):
        lines = [*_STREAM_LINES[:line], doc, *_STREAM_LINES[line + 1:]]
        path = tmp_path / "s.jsonl"
        path.write_text("\n".join(map(json.dumps, lines)) + "\n")
        with pytest.raises(ValueError) as refused:
            load_stream(path)
        assert type(refused.value) is ValueError
        assert str(refused.value).startswith(f"{path}: line {n}: {refusal}")


# ------------------------------------------------- whole files, versions


def _broken(data, how: str):
    """The first half of ``data`` (text or bytes), or none of it."""
    return data[: len(data) // 2] if how == "truncated" else data[:0]


@pytest.mark.parametrize("how", ["truncated", "empty"])
def test_a_truncated_or_empty_file_is_one_error_line(how, tmp_path, capsys):
    faults = tmp_path / "faults.json"
    faults.write_text(_broken(json.dumps(_FAULT_PAYLOADS[0]), how))
    _one_error_line(capsys, main(["run", *_SMALL, "--faults", str(faults)]), 1,
                    "--faults: not JSON (")  # fmt: skip
    jobs = tmp_path / "jobs.json"
    jobs.write_text(_broken(json.dumps(_JOBS), how))
    _one_error_line(capsys, main(["multirun", "--jobs", str(jobs)]), 2, "--jobs: not JSON (")
    trace = tmp_path / "t.json"
    trace.write_text(_broken(json.dumps(_TRACE_DOC), how))
    for flags in ((), ("--compare", str(trace))):
        _one_error_line(capsys, main(["report", *flags, str(trace)]), 2,
                        f"{trace}: not JSON (")  # fmt: skip
    ckpt = write_checkpoint(_CKPT, tmp_path / "c.npz")
    ckpt.write_bytes(_broken(ckpt.read_bytes(), how))
    for argv in (["ckpt", "inspect", str(ckpt)], ["run", *_SMALL, "--resume", str(ckpt)]):
        _one_error_line(capsys, main(argv), 1, f"{ckpt}: not a readable checkpoint (")
    stream = tmp_path / "s.jsonl"
    stream.write_text(_broken(dump_stream(_STREAM, tmp_path / "full.jsonl").read_text(), how))
    with pytest.raises(ValueError, match=f"^{re.escape(str(stream))}: (line|empty)"):
        load_stream(stream)


@pytest.mark.parametrize("version", [1, 3, "2", None, _DELETE], ids=repr)
def test_a_checkpoint_of_another_or_no_version_is_one_error_line(version, tmp_path, capsys):
    meta = mutated(_CKPT.meta, ["format_version"], version)
    path = write_checkpoint(Checkpoint(meta=meta, arrays=_CKPT.arrays), tmp_path / "c.npz")
    verb = "is missing" if version is _DELETE else "must be an integer in [2, 2]"
    _one_error_line(capsys, main(["ckpt", "inspect", str(path)]), 1,
                    f"{path}: format_version {verb}")  # fmt: skip


@pytest.mark.parametrize("schema", ["repro.replay_stream/2", 1, _DELETE], ids=_value_id)
def test_a_stream_of_another_or_no_version_is_a_value_error(schema, tmp_path):
    header = mutated(_STREAM_LINES[0], ["schema"], schema)
    path = tmp_path / "s.jsonl"
    path.write_text(json.dumps(header) + "\n")
    verb = "is missing" if schema is _DELETE else "must be one of 'repro.replay_stream/1'"
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: line 1: schema {verb}')}"):
        load_stream(path)


# ---------------------------------------------------------- round trips


def test_checkpoint_metadata_reads_back_unchanged(tmp_path):
    path = write_checkpoint(_CKPT, tmp_path / "c.npz")
    back = load_checkpoint(path)
    assert json.dumps(back.meta, sort_keys=True) == json.dumps(_CKPT.meta, sort_keys=True)
    assert read_record(back.meta, META, str(path)) is back.meta


def test_the_recorder_dict_reads_back_unchanged():
    recorder = _TRACED[1].recorder
    payload = json.loads(json.dumps(recorder_to_dict(recorder)))
    assert read_record(payload, RECORDER, "recorder") is payload
    assert recorder_to_dict(recorder_from_dict(payload)) == recorder_to_dict(recorder)


def test_the_unified_trace_reads_back_unchanged(tmp_path):
    path = tmp_path / "t.json"
    write_unified_trace(path, _TRACED[1])
    assert json.dumps(read_trace(path)) == json.dumps(trace_document(_TRACED[1]))


def test_the_replay_stream_reads_back_unchanged(tmp_path):
    assert load_stream(dump_stream(_STREAM, tmp_path / "s.jsonl")) == _STREAM


# ----------------------------------------------------------- the reader lint

SRC = Path(repro.__file__).resolve().parent


def _calls(node, name: str) -> bool:
    func = getattr(node, "func", None)
    return getattr(func, "attr", getattr(func, "id", None)) == name


def unread_json_loads(tree: ast.AST) -> list[int]:
    """Lines of ``json.load`` / ``json.loads`` calls whose result is not
    handed to ``read_record``: as its first argument, or through a name
    assigned from the call and passed first to ``read_record`` in the same
    function."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        if not (isinstance(func, ast.Attribute) and ast.unparse(func) in ("json.load", "json.loads")):
            continue
        parent = parents[node]
        if _calls(parent, "read_record") and parent.args[0] is node:
            continue
        scope = parent
        while not isinstance(scope, (ast.FunctionDef, ast.Module)):
            scope = parents[scope]
        read = {ast.unparse(c.args[0]) for c in ast.walk(scope) if _calls(c, "read_record")}
        if not (isinstance(parent, ast.Assign) and {ast.unparse(t) for t in parent.targets} <= read):
            found.append(node.lineno)
    return found


def test_every_json_load_under_src_is_read_as_a_record():
    found = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in unread_json_loads(ast.parse(path.read_text()))
    ]
    assert not found, "json.load(s) whose result is not read by read_record:\n" + "\n".join(found)


def test_the_lint_sees_a_hand_written_reader():
    code = (
        "import json\n"
        "def good(text):\n"
        "    return read_record(json.loads(text), R, 'f')\n"
        "def assigned(text):\n"
        "    doc = json.loads(text)\n"
        "    return read_record(doc, R, 'f')\n"
        "def hand_written(text):\n"
        "    doc = json.loads(text)\n"
        "    if not isinstance(doc, dict):\n"
        "        raise ValueError('f')\n"
        "    return doc\n"
        "def other_name(text):\n"
        "    doc = json.loads(text)\n"
        "    return read_record(other, R, 'f')\n"
    )
    assert unread_json_loads(ast.parse(code)) == [8, 13]
