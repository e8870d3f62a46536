PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)

.PHONY: test test-fast test-ci lint analyze bench bench-quick bench-xl bench-xl-smoke docs-check sweep-smoke sweep-report sweep-resume-smoke chaos-smoke convergence-smoke airbench-smoke bench-pairs kernel-times ci

test:            ## full tier-1 suite (tests/ + benchmarks/)
	$(PYTHON) -m pytest -x -q

test-fast:       ## unit/integration tests only
	$(PYTHON) -m pytest tests -q

test-ci:         ## the exact pytest invocation of the CI test matrix
	$(PYTHON) -m pytest -x -q -m "not slow"

lint:            ## ruff static checks, same as the CI lint job (pip install ruff)
	$(PYTHON) -m ruff check .

analyze:         ## repo-specific invariant checkers (RNG discipline, hot-path allocation, registry consistency) + the mypy strict gate (skipped locally when mypy is absent; the CI analyze job enforces it).  Writes results/analysis_findings.json
	$(PYTHON) -m tools.analysis --json results/analysis_findings.json
	$(PYTHON) -m tools.analysis --mypy

bench:           ## legacy perf harness (XL population, mechanism convergence), appends to BENCH_perf_v1.json
	$(PYTHON) -m repro.experiments bench --label perf_v1

bench-quick:     ## smaller/faster perf smoke run (the CI bench-smoke job); writes BENCH_smoke.json (gitignored) so the committed BENCH_perf_v1.json trajectory stays curated
	$(PYTHON) -m repro.experiments bench --label smoke --quick

bench-xl:        ## population-scale tier only (10k + 100k workers), appends grouped_round_xl rows to BENCH_perf_v1.json
	$(PYTHON) -m repro.experiments bench --xl-only --label perf_v1

bench-xl-smoke:  ## the CI xl-smoke job: 10k-worker tier in a fresh subprocess with a 4 GB peak-RSS budget; writes BENCH_xl_smoke.json (gitignored) + results/bench_xl_smoke.jsonl
	$(PYTHON) -m repro.experiments bench --xl-only --xl-workers 10000 \
		--xl-rss-budget-mb 4096 --xl-jsonl results/bench_xl_smoke.jsonl \
		--label xl_smoke

docs-check:      ## link-check docs/*.md + README, run doctest on their fenced examples and on every src/repro docstring that has `>>>` examples, and check docs/API.md covers every repro.fl/core/registry/scenario/sweep export (the CI docs job)
	$(PYTHON) tools/check_docs.py

sweep-smoke:     ## 2-point scenario grid on the synthetic dataset (the CI sweep-smoke job); streams per-run summaries to results/sweep_smoke.jsonl
	$(PYTHON) -m repro.experiments sweep examples/sweep_smoke.json --output results/sweep_smoke.jsonl

sweep-report:    ## render results/sweep_smoke.jsonl into a consolidated markdown report (run `make sweep-smoke` first)
	$(PYTHON) -m repro.experiments report results/sweep_smoke.jsonl --output results/sweep_report.md

sweep-resume-smoke: ## the CI sweep-resume job: kill/resume durability tests, then a cached sweep relaunched with --resume (reuses every completed point) + consolidated report
	$(PYTHON) -m pytest -q -m sweep_resume
	$(PYTHON) -m repro.experiments sweep examples/sweep_smoke.json \
		--output results/sweep_resume_smoke.jsonl --cache-dir results/sweep_cache
	$(PYTHON) -m repro.experiments sweep examples/sweep_smoke.json \
		--output results/sweep_resume_smoke.jsonl --cache-dir results/sweep_cache \
		--resume --report results/sweep_resume_report.md

chaos-smoke:     ## fault-injection smoke (the CI chaos job): chaos-marked tests + a seeded dropout sweep; streams per-run fault counters to results/chaos_smoke.jsonl
	$(PYTHON) -m pytest -q -m chaos
	$(PYTHON) -m repro.experiments sweep examples/chaos_smoke.json --output results/chaos_smoke.jsonl

convergence-smoke: ## mechanism-family convergence smoke (the CI convergence job): convergence-marked trajectory tests + the mechanism_convergence bench tier on a tiny grid; writes results/convergence_smoke.jsonl + BENCH_convergence_smoke.json (gitignored)
	$(PYTHON) -m pytest -q -m convergence
	$(PYTHON) -m repro.experiments bench --convergence-only --quick \
		--convergence-jsonl results/convergence_smoke.jsonl \
		--label convergence_smoke

airbench-smoke:  ## the repo benchmark (BENCHMARK.json) at smoke sizes (the CI airbench-smoke job): all six workloads once, traced and untraced, every metric printed by name; exit 1 if an operation fails; writes results/airbench_smoke.json
	python3 benchmarks/airbench/bench.py --smoke --output results/airbench_smoke.json

WORKLOAD ?= scale_1m
PARENT ?= HEAD
PAIRS ?= 10
bench-pairs:     ## how a gain is claimed (choosing-metrics §8): PAIRS alternating runs of the repo benchmark on WORKLOAD, the committed files of PARENT against this checkout, one seed per pair; prints medians, quartiles, pairs won and gain / regression / unresolved / unchanged per end-to-end metric; writes results/bench_pairs_<workload>.json; exit 1 on a regression (tools/bench_pairs.py --record also appends a compact record to the committed BENCH_pairs.json)
	python3 tools/bench_pairs.py --workload $(WORKLOAD) --parent $(PARENT) --pairs $(PAIRS)

MODEL ?= mnist_cnn
PARAMS ?= {"image_size": 8, "scale": 0.1}
GROUP ?= 12
BATCH ?= 32
kernel-times:    ## forward/backward µs of every batched kernel of MODEL (a registered model name, PARAMS its kwargs as JSON) on one (GROUP, BATCH) tile, by direct calls — the per-kernel split of run_group behind docs/PERFORMANCE.md "Batched convolution kernels"; defaults are the tile fig_cnn runs
	$(PYTHON) tools/kernel_times.py --model $(MODEL) --params '$(PARAMS)' --group $(GROUP) --batch $(BATCH)

ci: lint analyze test-ci bench-quick bench-xl-smoke docs-check sweep-smoke sweep-resume-smoke chaos-smoke convergence-smoke airbench-smoke  ## reproduce the full CI pipeline locally
