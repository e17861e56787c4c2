# Standard entry points; CI runs `make check`, `make smoke-faults`,
# `make smoke-adversary`, `make smoke-campaign`, `make smoke-send`,
# `make smoke-serve`, `make smoke-examples`, and `make fuzz`.
GO ?= go

# Per-target budget for the CI fuzz smoke (`make fuzz`); raise it
# locally for real exploration, e.g. `make fuzz FUZZTIME=5m`.
FUZZTIME ?= 10s

.PHONY: build test race vet lint lint-baseline check docs reproduce smoke-faults smoke-adversary smoke-campaign smoke-send smoke-serve smoke-examples fuzz bench bench-smoke bench-e2e-smoke bench-check leaktest

build:
	$(GO) build ./...

# test prints what `go test ./...` prints, then the ten slowest
# top-level tests (scripts/testsummary.awk); the exit status is go test's.
test:
	@out=$$(mktemp); times=$$(mktemp); \
	$(GO) test -v ./... > $$out 2>&1; st=$$?; \
	awk -v times=$$times -f scripts/testsummary.awk $$out; \
	echo "slowest tests:"; sort -rn $$times | head -10; \
	rm -f $$out $$times; exit $$st

# Race-check the whole module; the concurrency-heavy packages (stage
# pools, lock-free metrics, retry/fault layers, loopback servers) all
# have goroutine-crossing tests.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis (docs/LINT.md): dropped errors,
# context propagation, metric-name drift against docs/OBSERVABILITY.md,
# dead values, raw sleeps in retry paths, plus the concurrency pack —
# blocking ops under held mutexes (lockhold), lock leaks (unlockpath),
# unstoppable goroutines (goroleak) and WaitGroup misuse (wgpair).
# Fails on any finding not in the committed baseline
# (.mtastslint-baseline.json, kept empty).
lint:
	$(GO) run ./cmd/mtastslint

# Regenerate the baseline from current findings. The goal state is an
# empty baseline: prefer fixing or //lint:ignore-ing findings instead.
lint-baseline:
	$(GO) run ./cmd/mtastslint -write-baseline

check: build vet lint docs test race leaktest smoke-adversary smoke-serve smoke-examples

# Goroutine-leak harness (internal/leakcheck): the concurrency-heavy
# packages declare a TestMain that fails the binary if any test leaves
# a goroutine running. -count 1 defeats the test cache so the check is
# live even right after `make race`.
leaktest:
	$(GO) test -race -count 1 ./internal/leakcheck ./internal/scanner ./internal/mtasts ./internal/campaign ./internal/sf ./internal/obs ./internal/mta ./internal/smtpclient ./internal/resolver ./internal/experiments ./internal/scansvc ./internal/loopnet

# Docs-vs-code gates that run fast enough to gate every check: CLI
# flags against README/docs (internal/docscheck), plus the linted
# catalogs (metric names, error codes) indirectly via `make lint` and
# the full test suite.
docs:
	$(GO) test ./internal/docscheck/ -count 1

reproduce:
	$(GO) run ./cmd/reproduce

# Seeded fault-injection smoke: scans healthy loopback deployments
# through ~10% DNS loss + SERVFAIL/REFUSED blips + connection resets and
# fails on any misclassification or same-seed nondeterminism
# (docs/ROBUSTNESS.md).
smoke-faults:
	$(GO) run ./cmd/reproduce -experiment robustness -fault-seed 7

# Seeded adversary smoke: mounts every registered attack on live
# loopback worlds and drives the full sender-behavior × policy-mode
# matrix through the real delivery stack, twice. Fails on any model
# mismatch, enforce-mode downgrade, unreported testing-mode violation,
# or same-seed divergence (docs/ADVERSARY.md).
smoke-adversary:
	$(GO) run ./cmd/reproduce -experiment sendertest -seed 7

# Campaign crash smoke over a real on-disk store: run two weeks, then
# tear the log mid-week-1 (cut halfway between week 1's first record
# and the end), as a kill mid-write leaves it. status must then report
# only week 0 done, so the cut is known to be mid-run; resume to
# completion, then require status/diff to see the full campaign and the
# week-1 export to be byte-identical to a fresh uninterrupted run
# (docs/CAMPAIGN.md). Both weeks' exports must then hash to the
# committed GOLDEN.sha256 lines, so a change to any stored record byte
# (a record field, the class hash, the key layout) fails here; a change
# that moves them on purpose updates GOLDEN.sha256 and says why in
# CHANGES.md. Every other crash point is enumerated in tier-1.
smoke-campaign:
	$(GO) build -o /tmp/mtasts-campaign-smoke ./cmd/mtasts-campaign
	rm -rf /tmp/mtasts-campaign-smoke-store /tmp/mtasts-campaign-smoke-ref
	/tmp/mtasts-campaign-smoke run -dir /tmp/mtasts-campaign-smoke-store -weeks 2 -scale 0.02 -shard-size 64
	seg=/tmp/mtasts-campaign-smoke-store/seg-000001.log; \
		first=$$(grep -abo 'c/campaign/w/0001/d/' $$seg | head -1 | cut -d: -f1); \
		test -n "$$first" || { echo "smoke-campaign: no week-1 record in $$seg"; exit 1; }; \
		truncate -s $$(( (first + $$(stat -c %s $$seg)) / 2 )) $$seg
	/tmp/mtasts-campaign-smoke status -dir /tmp/mtasts-campaign-smoke-store | grep -q ": 1 weeks done" || { echo "smoke-campaign: the cut store does not report exactly 1 completed week"; exit 1; }
	/tmp/mtasts-campaign-smoke resume -dir /tmp/mtasts-campaign-smoke-store -weeks 2 -scale 0.02 -shard-size 64
	/tmp/mtasts-campaign-smoke status -dir /tmp/mtasts-campaign-smoke-store | grep -q "2 weeks done" || { echo "smoke-campaign: status does not report 2 completed weeks"; exit 1; }
	/tmp/mtasts-campaign-smoke diff -dir /tmp/mtasts-campaign-smoke-store -old 0 -new 1 > /dev/null
	/tmp/mtasts-campaign-smoke run -dir /tmp/mtasts-campaign-smoke-ref -weeks 2 -scale 0.02 -shard-size 64
	/tmp/mtasts-campaign-smoke export -dir /tmp/mtasts-campaign-smoke-store -week 1 > /tmp/mtasts-campaign-smoke-store.jsonl
	/tmp/mtasts-campaign-smoke export -dir /tmp/mtasts-campaign-smoke-ref -week 1 > /tmp/mtasts-campaign-smoke-ref.jsonl
	cmp /tmp/mtasts-campaign-smoke-store.jsonl /tmp/mtasts-campaign-smoke-ref.jsonl
	rm -rf /tmp/mtasts-campaign-smoke-golden && mkdir /tmp/mtasts-campaign-smoke-golden
	for w in 0 1; do /tmp/mtasts-campaign-smoke export -dir /tmp/mtasts-campaign-smoke-store -week $$w > /tmp/mtasts-campaign-smoke-golden/smoke-campaign-week$$w.jsonl || exit 1; done
	grep ' smoke-campaign-' GOLDEN.sha256 | (cd /tmp/mtasts-campaign-smoke-golden && sha256sum --strict -c -)
	@echo "smoke-campaign: crash-resume snapshot byte-identical, both week exports match GOLDEN.sha256"

# Sender crash-restart drill over the durable policy cache: a cold
# mtasts-send process fetches and delivers, the policy host is killed,
# and a second process must deliver warm — enforcing the on-disk policy
# with zero policy fetches (docs/SENDER.md). Builds the real binary.
smoke-send:
	$(GO) test ./cmd/mtasts-send -run '^TestSmokeSend$$' -count 1 -sendsmoke -v

# Service crash smoke with the real mtasts-serve binary: submit a job
# over HTTP, scrape Prometheus /metrics off the live process, SIGKILL
# it once the job is done, tear the log inside the job's results,
# restart on the same store, watch the job resume to done, ingest a
# TLSRPT report and fetch the joined results — then require the resumed
# job's result bytes to equal a fresh uninterrupted run's
# (docs/SERVICE.md).
smoke-serve:
	$(GO) test ./cmd/mtasts-serve -run '^TestSmokeServe$$' -count 1 -servesmoke -v

# Run the examples, which nothing else executes: each must exit 0 and
# print the line that says its scenario played out (delegation has no
# single such line; its exit status is the check). longitudinal runs
# five times and every output must match the first byte for byte: a map
# walk reaching the output repeats an order now and then, so one rerun
# would miss it about one time in five.
smoke-examples:
	$(GO) run ./examples/quickstart > /tmp/mtasts-example.out && grep -q 'verdict: OK' /tmp/mtasts-example.out
	$(GO) run ./examples/sendermta > /tmp/mtasts-example.out && grep -q 'rogue MX received 0 message(s)' /tmp/mtasts-example.out
	$(GO) run ./examples/danefirst > /tmp/mtasts-example.out && grep -q 'MTA-STS was never consulted' /tmp/mtasts-example.out
	$(GO) run ./examples/delegation > /dev/null
	$(GO) run ./examples/longitudinal > /tmp/mtasts-example.out && grep -q 'misconfigured' /tmp/mtasts-example.out
	for i in 2 3 4 5; do $(GO) run ./examples/longitudinal > /tmp/mtasts-example-2.out && cmp /tmp/mtasts-example.out /tmp/mtasts-example-2.out || exit 1; done
	@echo "smoke-examples: quickstart, sendermta, danefirst, delegation, longitudinal ran clean; longitudinal printed the same output five times"

# Coverage-guided fuzzing smoke over the wire-format parsers and the
# store's segment replay (`go test
# -fuzz` accepts one target per invocation). The committed seed corpora
# under */testdata/fuzz/ also run as part of the plain test suite.
fuzz:
	$(GO) test ./internal/dnsmsg -run '^$$' -fuzz '^FuzzDecodeMessage$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dnsmsg -run '^$$' -fuzz '^FuzzUnpack$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mtasts -run '^$$' -fuzz '^FuzzParsePolicy$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mtasts -run '^$$' -fuzz '^FuzzParseRecord$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tlsrpt -run '^$$' -fuzz '^FuzzIngestReport$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/store -run '^$$' -fuzz '^FuzzDiskReplay$$' -fuzztime $(FUZZTIME)

# Scheduler benchmark plus the BENCH_scan.json rows it is tracked by
# (docs/PIPELINE.md), and the sender policy-cache delivery benchmarks
# with their BENCH_cache.json rows (docs/SENDER.md). The rows go to /tmp,
# as bench-check's do; the committed baselines change only on purpose:
#   go test ./internal/scanner -run '^TestBenchScanJSON$' -count 1 -benchscan-out $PWD/BENCH_scan.json
#   go test ./internal/mtasts -run '^TestBenchCacheJSON$' -count 1 -benchcache-out $PWD/BENCH_cache.json
bench:
	$(GO) test ./internal/scanner -run '^$$' -bench 'BenchmarkRunnerPipelined' -benchtime 1x -count 1
	$(GO) test ./internal/scanner -run '^TestBenchScanJSON$$' -count 1 -benchscan-out /tmp/mtasts-bench-scan.json
	$(GO) test ./internal/mtasts -run '^$$' -bench 'BenchmarkPolicyCacheDeliveries' -benchmem -count 1
	$(GO) test ./internal/mtasts -run '^TestBenchCacheJSON$$' -count 1 -benchcache-out /tmp/mtasts-bench-cache.json

# Run every Benchmark* in the module once, so none can rot (a panic or
# b.Fatal fails the target); the numbers are not read.
bench-smoke:
	$(GO) test ./... -run '^$$' -bench . -benchtime 1x -count 1

# bench/ is a module of its own, so nothing above builds or tests it,
# yet it calls internal/ types by path: vet it and run its tests (~20 s:
# every BENCHMARK.json workload at smoke size against the oracle, plus
# same-seed determinism).
bench-e2e-smoke:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# Bench regression bar: regenerate the benchmark JSONs into /tmp (the
# committed BENCH_*.json stay untouched) and fail if any row's
# throughput drops more than 20% below the committed baseline
# (cmd/benchguard). CI runs this on every push.
bench-check:
	$(GO) test ./internal/scanner -run '^TestBenchScanJSON$$' -count 1 -benchscan-out /tmp/mtasts-bench-scan.json
	$(GO) test ./internal/mtasts -run '^TestBenchCacheJSON$$' -count 1 -benchcache-out /tmp/mtasts-bench-cache.json
	$(GO) run ./cmd/benchguard -baseline BENCH_scan.json -current /tmp/mtasts-bench-scan.json
	$(GO) run ./cmd/benchguard -baseline BENCH_cache.json -current /tmp/mtasts-bench-cache.json
