# Canonical developer commands for the OSP reproduction.

.PHONY: install test bench bench-full hostbench hostbench-numeric hostbench-compare hostbench-pairs faults ckpt check trace dash compare examples clean

install:
	pip install -e . || python setup.py develop --no-deps

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only -s

bench-full:
	pytest benchmarks/ --benchmark-only -s --full

# Host-time benchmark (BENCHMARK.json, bench/README.md): every workload's
# end-to-end metrics to $(OUT). Every optimisation PR reports
# `make hostbench-compare A=parent.json B=change.json`.
OUT ?= /tmp/hostbench.json
hostbench:
	python3 bench/run.py --out $(OUT)

# The numeric workload alone (~20 s): the check for any change under
# src/repro/autograd/ or src/repro/nn/. Same seed on both commits, and the
# printed digest must not move.
SEED ?= 3
hostbench-numeric:
	python3 bench/run.py --workload numeric_fig6b --seed $(SEED) --seconds 10 --trace 0

hostbench-compare:
	python3 bench/compare.py $(A) $(B)

# The pair protocol: $(PAIRS) alternating runs of one workload on fresh
# copies of $(PARENT) and of the working tree, a new seed per pair. With
# METRIC= a gain is claimed: exits 1 unless the change wins >= 9/10 pairs on
# it and the medians differ by more than the parent's interquartile range,
# or if another end-to-end metric is worse than its bound. Without METRIC=
# nothing is claimed: exits 1 only if some metric is worse than its bound,
# and WORKLOAD= may list several (WORKLOAD="t8_osp t128_osp cotenant_pair"),
# each judged on the same two copies. WORKLOAD= and METRIC= have no default:
# a claim names its one workload and its metric.
PARENT ?= HEAD
PAIRS ?= 10
SEED0 ?= 71
METRIC ?=
hostbench-pairs:
	python3 tools/hostbench_pairs.py --parent $(PARENT) $(foreach w,$(WORKLOAD),--workload $(w)) \
	  --pairs $(PAIRS) --seed0 $(SEED0) $(if $(METRIC),--metric $(METRIC))

# Fault-injection smoke: the tier-1 fault tests, the sync-model conformance
# matrix (every model x crash / restart / join / leave x checkpoint-resume),
# an elastic leave + join from --faults JSON, plus the robustness bench.
faults:
	pytest tests/cluster/test_faults.py tests/sync/test_conformance.py -q
	PYTHONPATH=src python -m repro run --sync bsp --workers 4 --epochs 4 --iterations 2 \
	  --faults '[{"kind":"worker_leave","worker":1,"epoch":2},{"kind":"worker_join","worker":3,"epoch":1}]' \
	  --json
	pytest benchmarks/bench_fault_robustness.py --benchmark-only -s

# Checkpoint smoke: checkpointed run -> inspect the snapshot -> resume it,
# then the checkpoint/restore tier-1 tests.
ckpt:
	rm -rf /tmp/repro-ckpt-smoke && mkdir -p /tmp/repro-ckpt-smoke
	PYTHONPATH=src python -m repro run --sync osp --workers 4 --epochs 6 \
	  --iterations 3 --checkpoint-every 2 --checkpoint-dir /tmp/repro-ckpt-smoke
	PYTHONPATH=src python -m repro ckpt inspect /tmp/repro-ckpt-smoke/ckpt-epoch0002.npz
	PYTHONPATH=src python -m repro run --sync osp --workers 4 --epochs 6 \
	  --iterations 3 --checkpoint-every 2 --checkpoint-dir /tmp/repro-ckpt-smoke-resumed \
	  --resume /tmp/repro-ckpt-smoke/ckpt-epoch0002.npz
	PYTHONPATH=src pytest tests/ckpt/ -q

# Invariant-checker smoke: an OSP run with an active fault window under
# every runtime monitor, the differential replay (resumed vs uninterrupted),
# then the repro.check tier-1 tests (the no-private-reach guard among them)
# and the placement test: monitors check as often through an identity
# placement on a network the trainer does not own.
check:
	PYTHONPATH=src python -m repro check --sync osp --workers 4 --epochs 6 \
	  --iterations 4 \
	  --faults '[{"kind": "bandwidth_dip", "start": 0.5, "duration": 2.0, "factor": 0.5}]'
	PYTHONPATH=src pytest tests/check tests/multijob/test_placement.py -q

# Observability smoke: run a traced OSP workload and render the overlap
# report from the file (`repro report` checks the trace and exits 2 on a
# malformed one).
trace:
	PYTHONPATH=src python -m repro run --sync osp --workers 4 --epochs 8 --trace trace.json
	PYTHONPATH=src python -m repro report trace.json --json > /dev/null
	PYTHONPATH=src python -m repro report trace.json

# Time-series dashboard smoke: sampled OSP run with a fault window ->
# self-contained HTML + CSV + Prometheus exports, then the obs tier-1 tests.
dash:
	PYTHONPATH=src python -m repro dash --workload vgg16-cifar10 --sync osp \
	  --workers 4 --epochs 3 --iterations 6 --out dash.html \
	  --csv dash.csv --prom dash.prom \
	  --faults '[{"kind": "straggler", "worker": 2, "start": 5.0, "duration": 40.0, "factor": 3.0}]'
	PYTHONPATH=src pytest tests/obs -q

# Cross-run regression diff smoke: a clean baseline vs a bandwidth-dip run;
# the report must attribute the delta to the rs phase and exit non-zero.
compare:
	PYTHONPATH=src python -m repro run --sync osp --workers 4 --epochs 3 \
	  --iterations 6 --trace /tmp/repro-compare-a.json
	PYTHONPATH=src python -m repro run --sync osp --workers 4 --epochs 3 \
	  --iterations 6 --trace /tmp/repro-compare-b.json \
	  --faults '[{"kind": "bandwidth_dip", "start": 2.0, "duration": 120.0, "factor": 0.25}]'
	PYTHONPATH=src python -m repro report --compare /tmp/repro-compare-a.json /tmp/repro-compare-b.json; \
	  test $$? -eq 1

examples:
	for f in examples/*.py; do echo "== $$f"; python $$f; done

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache .benchmarks src/repro.egg-info
	rm -f dash.html dash.csv dash.prom trace.json
