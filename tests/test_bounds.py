"""The refusal corpus, generated from the ``BOUNDS`` declarations.

Every class in ``repro`` that declares ``BOUNDS`` has a row of valid
baseline arguments below; each declared input is then refused, at
construction, for NaN, ±inf (+inf only where the bound is open at inf), a
value just outside each finite end, ``True``, ``"1"`` and (unless declared)
``None`` — with one ``ValueError`` line that starts with the input's name —
and each closed end is accepted. The same values reach the CLI through every
int and float flag, every numeric ``--jobs`` key and every ``--faults``
field, and each is one ``error:`` line naming the input. An AST lint keeps
hand-written range checks from growing back beside a declaration.
"""

import argparse
import ast
import importlib
import inspect
import json
import math
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.bounds import Bound
from repro.ckpt.manager import CheckpointManager
from repro.cli import JOB, build_parser, main
from repro.cluster.spec import ClusterSpec, TrainingPlan
from repro.compression.randomk import RandomK
from repro.compression.topk import TopK
from repro.core.colocated import ColocatedOSP
from repro.core.lgp import EMALGPCorrector
from repro.core.osp import OSP
from repro.data.dataset import Dataset
from repro.data.loader import BatchLoader
from repro.faults.schedule import (
    EVENT_KINDS,
    BandwidthDip,
    LinkFlap,
    LossBurst,
    StragglerSlowdown,
    WorkerCrash,
    WorkerJoin,
    WorkerLeave,
)
from repro.hardware.compute import ComputeModel
from repro.hardware.gpu import GPUSpec
from repro.hardware.jitter import LognormalJitter, PersistentStraggler
from repro.multijob.pool import NodePool
from repro.multijob.runner import JobScheduler
from repro.netsim.links import LinkSpec
from repro.netsim.topology import StarTopology
from repro.nn.models import MLP
from repro.obs.timeseries import MetricSampler, Series
from repro.optim.lr_scheduler import StepLR
from repro.optim.sgd import SGD
from repro.simcore.environment import Environment
from repro.sync.compressed import CompressedBSP
from repro.sync.dssp import DSSP
from repro.sync.ssp import SSP
from repro.sync.sync_switch import SyncSwitch

#: Valid baseline arguments per fault kind; shared by the construction
#: corpus and the ``--faults`` half (a 2-worker cluster).
_FAULTS = {
    "loss_burst": {"start": 0.0, "duration": 1.0},
    "bandwidth_dip": {"start": 0.0, "duration": 1.0},
    "link_flap": {"start": 0.0, "duration": 1.0},
    "straggler": {"worker": 0, "start": 0.0, "duration": 1.0},
    "worker_crash": {"worker": 0, "before_epoch": 1},
    "worker_join": {"worker": 1, "epoch": 1},
    "worker_leave": {"worker": 1, "epoch": 1},
}

#: Valid baseline arguments per declaring class (a factory, since some
#: arguments are live objects). A new declaration needs a row here.
BASELINES = {
    ClusterSpec: dict,
    TrainingPlan: dict,
    LinkSpec: dict,
    StarTopology: lambda: {"n_nodes": 2},
    GPUSpec: lambda: {"name": "x", "tflops": 1.0},
    ComputeModel: lambda: {"gpu": GPUSpec("x", tflops=1.0)},
    LognormalJitter: dict,
    PersistentStraggler: lambda: {"slow_workers": (0,)},
    **{cls: _FAULTS[cls.kind].copy for cls in EVENT_KINDS.values()},
    OSP: dict,
    ColocatedOSP: dict,
    EMALGPCorrector: lambda: {"params": {}},
    SSP: dict,
    DSSP: lambda: {"s_min": 0},
    SyncSwitch: dict,
    CompressedBSP: lambda: {"compressor": TopK(0.5)},
    RandomK: lambda: {"ratio": 0.5},
    TopK: lambda: {"ratio": 0.5},
    SGD: lambda: {"module": MLP([2, 2], seed=0)},
    StepLR: lambda: {"optimizer": SGD(MLP([2, 2], seed=0))},
    NodePool: lambda: {"env": Environment(), "n_hosts": 1},
    JobScheduler: lambda: {
        "env": Environment(),
        "pool": NodePool(Environment(), 1),
        "mode": "immediate",
        "placement": "shared",
    },
    MetricSampler: lambda: {"env": Environment(), "interval": 1.0},
    Series: lambda: {"name": "timeseries.net.active_flows"},
    CheckpointManager: lambda: {"trainer": object(), "every": 1, "directory": "ckpt"},
    BatchLoader: lambda: {
        "dataset": Dataset(np.zeros((4, 2)), np.zeros(4, dtype=int)),
        "batch_size": 1,
    },
}


def _modules():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            yield importlib.import_module(info.name)


def _declaring_classes():
    return {
        cls
        for module in _modules()
        for _name, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__ and "BOUNDS" in vars(cls)
    }


def test_every_declaring_class_has_a_baseline():
    assert _declaring_classes() == set(BASELINES)


def _infinite_allowed(bound: Bound) -> bool:
    return bound.hi == math.inf and bound.ends[1] == "]"


def _ends(bound: Bound):
    """``(end, closed, step outward)`` for each finite end."""
    for end, bracket, step in ((bound.lo, bound.ends[0], -1), (bound.hi, bound.ends[1], 1)):
        if math.isfinite(end):
            yield end, bracket in "[]", step


def _refusals(bound: Bound):
    values = [math.nan, -math.inf, True, "1"]
    if not _infinite_allowed(bound):
        values.append(math.inf)
    for end, closed, step in _ends(bound):
        if not closed:
            values.append(end)
        elif bound.integer:
            values.append(int(end) + step)
        else:
            values.append(math.nextafter(end, step * math.inf))
    values = [(v,) for v in values] if bound.each else values
    if not bound.optional:
        values.append(None)
    return values


def _acceptances(bound: Bound):
    values = [int(end) if bound.integer else end for end, closed, _ in _ends(bound) if closed]
    if _infinite_allowed(bound):
        values.append(math.inf)
    values = [(v,) for v in values] if bound.each else values
    if bound.optional:
        values.append(None)
    return values


def _rows(values_of):
    return [
        pytest.param(cls, name, value, id=f"{cls.__name__}.{name}={value!r}")
        for cls in BASELINES
        for name, bound in cls.BOUNDS.items()
        for value in values_of(bound)
    ]


@pytest.mark.parametrize("cls, name, value", _rows(_refusals))
def test_an_input_outside_its_bound_is_refused_naming_it(cls, name, value):
    with pytest.raises(ValueError) as caught:
        cls(**{**BASELINES[cls](), name: value})
    message = str(caught.value)
    assert message.startswith(f"{name} must be ") and "\n" not in message


@pytest.mark.parametrize("cls, name, value", _rows(_acceptances))
def test_a_closed_end_of_a_bound_constructs(cls, name, value):
    cls(**{**BASELINES[cls](), name: value})


def test_the_motivating_inputs_are_refused():
    nan, inf = math.nan, math.inf
    cases = [
        ("n_epochs", lambda: TrainingPlan(n_epochs=nan)),
        ("seed", lambda: TrainingPlan(seed=-1)),
        ("n_workers", lambda: ClusterSpec(n_workers=2.5)),
        ("n_nodes", lambda: StarTopology(2.5)),
        ("tflops", lambda: GPUSpec("x", tflops=nan)),
        ("pgp_bandwidth", lambda: ComputeModel(GPUSpec("x", 1.0), pgp_bandwidth=nan)),
        ("slow_factor", lambda: PersistentStraggler([0], slow_factor=nan)),
        ("quorum_timeout", lambda: OSP(quorum_timeout=nan)),
        ("deadline_k", lambda: OSP(deadline_k=1.5)),
        ("staleness", lambda: SSP(staleness=2.5)),
        ("window", lambda: DSSP(window=nan)),
        ("switch_epoch", lambda: SyncSwitch(switch_epoch=nan)),
        ("n_hosts", lambda: NodePool(Environment(), 1.5)),
        ("factor", lambda: StragglerSlowdown(worker=0, start=0, duration=1, factor=inf)),
        ("nodes", lambda: LinkFlap(start=0, duration=1, nodes=[1.5])),
    ]
    for name, make in cases:
        with pytest.raises(ValueError, match=f"^{name} must be "):
            make()
    # A permanent flap is declared: its window is closed at inf.
    assert LinkFlap(start=0.0, duration=inf).duration == inf


# ------------------------------------------------------------ regrowth lint


def _is_number(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
    )


def _names(node, declared) -> bool:
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name in declared


def _raises_value_error(stmts) -> bool:
    for node in (n for stmt in stmts for n in ast.walk(stmt)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                return True
    return False


_ORDER = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def hand_checks(class_def: ast.ClassDef, declared) -> list[int]:
    """Lines of ``if`` statements in ``class_def`` that order one declared
    input against a number and raise ``ValueError`` (an equality such as
    ``n_ps != 1`` relates two inputs; it is not a range)."""
    found = []
    for node in ast.walk(class_def):
        if not isinstance(node, ast.If) or not _raises_value_error(node.body):
            continue
        for cmp in (n for n in ast.walk(node.test) if isinstance(n, ast.Compare)):
            operands = [cmp.left, *cmp.comparators]
            if any(
                isinstance(op, _ORDER)
                and ((_names(a, declared) and _is_number(b)) or (_is_number(a) and _names(b, declared)))
                for op, a, b in zip(cmp.ops, operands, operands[1:])
            ):
                found.append(node.lineno)
                break
    return found


def test_no_declared_input_is_also_checked_by_hand():
    found = []
    for cls in BASELINES:
        path = Path(inspect.getsourcefile(cls))
        tree = ast.parse(path.read_text())
        class_def = next(
            n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls.__name__
        )
        found += [f"{path.name}:{line} ({cls.__name__})" for line in hand_checks(class_def, cls.BOUNDS)]
    assert not found, "declared inputs checked by hand:\n" + "\n".join(found)


def test_the_lint_sees_a_hand_check():
    code = (
        "class C:\n"
        "    BOUNDS = {'x': None}\n"
        "    def __init__(self, x, y):\n"
        "        if not (self.x >= 0):\n"
        "            raise ValueError('x')\n"
        "        if y < 0:\n"  # not declared
        "            raise ValueError('y')\n"
        "        if x > y or x == 1:\n"  # relations, not bounds
        "            raise ValueError('x')\n"
        "        if x < -1:\n"
        "            raise ValueError('x')\n"
    )
    assert hand_checks(ast.parse(code).body[0], {"x"}) == [4, 10]


# ------------------------------------------------------------------ CLI half


def _numeric_flags(parser, command=()):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _numeric_flags(sub, (*command, name))
        elif action.type in (int, float):
            yield command, action.option_strings[0], action.type


#: Every int and float flag: the input its refusal names, and a value below
#: its range.
FLAGS = {
    "--workers": ("n_workers", "0"),
    "--epochs": ("n_epochs", "0"),
    "--iterations": ("iterations_per_epoch", "0"),
    "--sigma": ("sigma", "-1"),
    "--seed": ("seed", "-1"),
    "--samples": ("samples", "0"),
    "--batch-size": ("batch_size", "0"),
    "--checkpoint-every": ("every", "0"),
    "--interval": ("interval", "0"),
    "--max-slowdown": ("max_slowdown", "-1"),
    "--hosts": ("n_hosts", "0"),
    "--slots-per-host": ("slots_per_host", "0"),
    "--gpus-per-host": ("gpus_per_host", "0"),
    "--headroom": ("headroom", "0"),
}
_NUMERIC_ONLY = {"--samples", "--batch-size"}
_SMALL = ["--workers", "2", "--epochs", "1", "--iterations", "1"]


def _flag_rows():
    for command, flag, kind in _numeric_flags(build_parser()):
        name, below = FLAGS[flag]
        for value in [below] + (["nan", "inf", "-inf"] if kind is float else []):
            yield pytest.param(command, flag, value, name, id=f"{' '.join(command)} {flag}={value}")


def test_every_numeric_flag_has_a_row():
    assert {flag for _c, flag, _k in _numeric_flags(build_parser())} == set(FLAGS)


def _refused_in_one_line(argv, name, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code != 0
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and name in lines[0], lines


@pytest.mark.parametrize("command, flag, value, name", _flag_rows())
def test_a_numeric_flag_out_of_range_is_one_error_line(
    command, flag, value, name, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)  # `dash` writes nothing when it refuses
    argv = [*command]
    if command == ("report",):
        trace = tmp_path / "t.json"
        span = {"ph": "X", "ts": 0, "dur": 1.0, "name": "compute"}
        trace.write_text(json.dumps({"traceEvents": [span], "otherData": {"wallTime": 1.0}}))
        argv += ["--compare", str(trace), str(trace)]
    else:
        argv += _SMALL
    if flag in _NUMERIC_ONLY:
        argv += ["--mode", "numeric"]
    _refused_in_one_line([*argv, f"{flag}={value}"], name, capsys)
    assert list(tmp_path.iterdir()) in ([], [tmp_path / "t.json"])


#: Every numeric ``--jobs`` key: the dotted key its refusal names, and a
#: value below its range.
JOB_KEYS = {
    "workers": ("[0].workers", 0),
    "epochs": ("[0].epochs", 0),
    "iterations": ("[0].iterations", 0),
    "seed": ("[0].seed", -1),
    "sigma": ("[0].sigma", -1.0),
}


def test_every_numeric_jobs_key_has_a_row():
    numeric = {key.rstrip("?") for key, kind in JOB.items() if isinstance(kind, Bound)}
    assert numeric == set(JOB_KEYS)


@pytest.mark.parametrize(
    "key, value",
    [
        (key, value)
        for key, (_name, below) in JOB_KEYS.items()
        for value in [below] + ([math.nan, math.inf, -math.inf] if isinstance(below, float) else [])
    ],
)
def test_a_numeric_jobs_key_out_of_range_is_one_error_line(key, value, capsys):
    job = {"name": "a", "workers": 2, "epochs": 1, "iterations": 1, key: value}
    _refused_in_one_line(["multirun", "--jobs", json.dumps([job])], JOB_KEYS[key][0], capsys)


@pytest.mark.parametrize(
    "kind, name, value",
    [
        (kind, name, value)
        for kind, cls in EVENT_KINDS.items()
        for name, bound in cls.BOUNDS.items()
        for value in _refusals(bound)
    ],
)
def test_a_fault_field_out_of_range_is_one_error_line(kind, name, value, capsys):
    event = {"kind": kind, **_FAULTS[kind], name: value}
    argv = ["run", *_SMALL, "--faults", json.dumps([event])]
    _refused_in_one_line(argv, name, capsys)
