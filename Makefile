PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-fast test-slow test-chaos chaos-smoke test-bench bench-smoke bench-paper-scale bench-16k-fast bench-100k-smoke lifecycle-smoke verify-smoke sweep-smoke malleable-smoke serve-smoke snapshot-smoke lint-imports

## Full tier-1 suite (the CI gate).
test:
	$(PYTHON) -m pytest -x -q

## Tier-1 minus the slow seed sweeps and golden re-runs (CI's quick lane).
test-fast:
	$(PYTHON) -m pytest -x -q -m "not slow"

## Everything, including the 25+-seed property sweeps.
test-slow:
	$(PYTHON) -m pytest -x -q --slow

## Chaos suite only (fast invariant/property sweep).
test-chaos:
	$(PYTHON) -m pytest -q tests/chaos

## Smoke: the acceptance scenario must pass with zero violations,
## and the same seed twice must produce byte-identical reports.
chaos-smoke:
	$(PYTHON) -m pytest -q tests/chaos
	$(PYTHON) -m repro.cli chaos run failure-storm flapping-node --seed 7 -j 2
	$(PYTHON) -c "from repro.chaos import run_scenario; \
	a = run_scenario('failure-storm', seed=7).to_text(); \
	b = run_scenario('failure-storm', seed=7).to_text(); \
	assert a == b, 'chaos report is not seed-deterministic'; \
	print('deterministic-seed check: OK')"

## Bench + telemetry suites only.
test-bench:
	$(PYTHON) -m pytest -q tests/bench tests/telemetry

## Smoke: the smoke scenario must produce a schema-valid bench file,
## and the same seed twice must produce byte-identical files.
bench-smoke:
	$(PYTHON) -m pytest -q tests/bench tests/telemetry
	$(PYTHON) -m repro.cli bench run slurm-1024 eslurm-1024 --seed 0 --out .bench-smoke -j 2
	$(PYTHON) -m repro.cli bench validate .bench-smoke/BENCH_slurm_1024.json
	$(PYTHON) -c "from repro.bench import run_bench; \
	a = run_bench('slurm-1024', seed=0).to_json(); \
	b = run_bench('slurm-1024', seed=0).to_json(); \
	assert a == b, 'bench payload is not seed-deterministic'; \
	print('deterministic-seed check: OK')"
	rm -rf .bench-smoke

## Paper-scale perf smoke: re-run the 1K-node tier (10K jobs, failures
## on) and judge it against the checked-in baseline — deterministic
## anchors must match exactly, wall time may not regress beyond +25%.
## The remaining tiers (up to the minutes-long 131K one) run via
## ``repro bench compare`` with no --names.
bench-paper-scale:
	$(PYTHON) -m repro.cli bench compare benchmarks/BENCH_paper_scale.json --names paper-1024

## 16K-node perf fence: re-run the paper's full machine size (16,384
## nodes, 10K jobs, failures on) against the checked-in baseline —
## the tier the flattened-lifecycle kernel is judged on.  Deterministic
## anchors must match exactly; wall may not regress beyond +25%.
bench-16k-fast:
	$(PYTHON) -m repro.cli bench compare benchmarks/BENCH_paper_scale.json --names paper-16384

## Lifecycle-kernel smoke: the FSM fast path must be observably
## indistinguishable from the generator reference — unit tests for the
## timer lane and the FSM walk, the full equivalence scenario matrix,
## then the oracle relation across a -j 2 seed sweep.
lifecycle-smoke:
	$(PYTHON) -m pytest -q tests/simkit/test_timer.py tests/rm/test_lifecycle.py tests/rm/test_lifecycle_equivalence.py
	$(PYTHON) -m repro.cli verify --relation lifecycle-equivalence --seeds 2 -j 2

## 100K-node perf smoke: re-run the 65,536-node small-step tier (the
## full machine over the 4 h matrix horizon) against the checked-in
## baseline — exercises the array-backed node state and the batched
## event kernel at scale while staying seconds-long for CI.  The
## incremental heartbeat sweep must also match the whole-forest oracle
## on the 65,536-node, 32-satellite machine.  The full paper-65536 /
## paper-131072 tiers are --slow territory.
bench-100k-smoke:
	$(PYTHON) -m pytest -q --slow tests/rm/test_heartbeat_sweep.py -k machine_scale
	$(PYTHON) -m repro.cli bench compare benchmarks/BENCH_paper_scale.json --names paper-65536-smoke

## Smoke: every oracle layer must hold on the current tree, and the
## golden digests must be reproducible byte-for-byte.
verify-smoke:
	$(PYTHON) -m pytest -q tests/oracle -m "not slow"
	$(PYTHON) -m repro.cli verify --seed 42
	$(PYTHON) -c "from repro.oracle import GOLDEN_SCENARIOS; \
	from repro.oracle.golden import dump_canonical; \
	sc = GOLDEN_SCENARIOS[0]; \
	assert dump_canonical(sc.record()) == dump_canonical(sc.record()), \
	'golden payload is not seed-deterministic'; \
	print('deterministic-digest check: OK')"

## Smoke: the sweep engine must be byte-deterministic — the same small
## matrix at -j 1 and -j 2 must write byte-identical BENCH files, and a
## poisoned cell must be contained (nonzero exit, healthy cells done).
sweep-smoke:
	$(PYTHON) -m pytest -q tests/parallel
	$(PYTHON) -m repro.cli bench run slurm-1024 eslurm-1024 --seed 0 --out .sweep-j1 -j 1
	$(PYTHON) -m repro.cli bench run slurm-1024 eslurm-1024 --seed 0 --out .sweep-j2 -j 2
	diff -r .sweep-j1 .sweep-j2
	@echo "sweep determinism check: OK (-j 1 == -j 2, byte for byte)"
	rm -rf .sweep-j1 .sweep-j2

## Smoke: the elastic/placement layer end to end — the shrink-storm
## chaos scenario must run violation-free, and the two differential
## relations that pin it down must hold across a parallel seed sweep.
malleable-smoke:
	$(PYTHON) -m pytest -q tests/sched/test_malleable.py tests/sched/test_placement.py tests/rm/test_malleable_engine.py
	$(PYTHON) -m repro.cli chaos run malleable-shrink-storm topology-storm --seed 7 -j 2
	$(PYTHON) -m repro.cli verify --relation malleable-throughput --relation topology-fragmentation --seeds 2 -j 2

## Smoke: the gateway end to end — the typed-API and serve suites must
## pass, the load test must replay entirely from cache with
## byte-identical bodies, and two runs at the same seed must agree on
## every non-wall-clock byte of BENCH_serve.json.
serve-smoke:
	$(PYTHON) -m pytest -q tests/serve tests/api
	$(PYTHON) -m repro.cli bench serve-load --requests 4 --concurrency 2 --workers 0 --out .serve-smoke-a.json
	$(PYTHON) -m repro.cli bench serve-load --requests 4 --concurrency 2 --workers 0 --out .serve-smoke-b.json
	$(PYTHON) -c "from repro.serve import load_serve, deterministic_view, dump_serve; \
	a = dump_serve(deterministic_view(load_serve('.serve-smoke-a.json'))); \
	b = dump_serve(deterministic_view(load_serve('.serve-smoke-b.json'))); \
	assert a == b, 'serve load-test is not seed-deterministic'; \
	print('serve determinism check: OK')"
	rm -f .serve-smoke-a.json .serve-smoke-b.json

## Smoke: the incremental-simulation layer end to end — the snapshot
## suite must pass, resume-from-snapshot must stay byte-identical to
## the straight run across a parallel seed sweep, and a what-if query
## must answer through the CLI.
snapshot-smoke:
	$(PYTHON) -m pytest -q tests/snapshot tests/serve/test_whatif.py -m "not slow"
	$(PYTHON) -m repro.cli verify --relation snapshot-equivalence --seeds 2 -j 2
	$(PYTHON) -m repro.cli whatif run --rm eslurm --n-nodes 32 --n-jobs 20 --seed 7 --at-s 43200 --perturb submit-job --job-nodes 4

lint-imports:
	$(PYTHON) -c "import repro, repro.api, repro.bench, repro.chaos, repro.oracle, repro.parallel, repro.serve, repro.telemetry, repro.cli, repro.snapshot"
