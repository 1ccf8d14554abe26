# Build and verification entry points. `make verify` is the full
# pre-merge battery: it includes the race detector because the hybrid
# Chrysalis runs ranks as goroutines and the fault-tolerance layer
# adds shared checkpoint stores — a data race there is a correctness
# bug, not a style issue.

GO ?= go

.PHONY: build test test-short race stress loc fuzz bench bench-chrysalis bench-kernels bench-pipeline bench-shard bench-seq bench-e2e bench-check fmt-check lint-ascii lint-maps chain-check verify clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The inner loop: internal/experiments shrinks its lab 3x under -short,
# so the whole suite takes seconds, not minutes. `make test` stays the
# full-size sweep.
test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# The slow tier, not part of `make verify`: 50 race-detector repetitions
# of the batteries that exercise the fault layer, the sharded tile
# pipeline and the message-passing substrate under them. A lost wakeup
# in mpi.matchRecv once showed about once per 120 -race runs; one pass
# of this subset is ~20 s, so the target takes ~15 min. A hang counts as
# a failure (the tests carry their own 30 s guards).
STRESS_COUNT ?= 50
stress:
	$(GO) test -race -count=$(STRESS_COUNT) -timeout 60m -run 'Fault|Overlap|Tile|Shard|HybridLoop' ./internal/chrysalis/
	$(GO) test -race -count=$(STRESS_COUNT) -timeout 60m ./internal/mpi/

# Line counts the way ROADMAP.md and the simplicity PRs count them:
# non-test and test Go outside bench/, in total and per internal package.
loc:
	@count() { find "$$1" -name '*.go' $$2 -name '*_test.go' -not -path './bench/*' | xargs cat 2>/dev/null | wc -l; }; \
	printf '%-24s %8s %8s\n' package non-test test; \
	for d in internal/*/; do printf '%-24s %8d %8d\n' "$${d%/}" "$$(count $$d !)" "$$(count $$d '')"; done; \
	printf '%-24s %8d %8d\n' 'total (outside bench/)' "$$(count . !)" "$$(count . '')"

# Short fuzz pass over every fuzz target (seed corpora always run as
# part of `make test`; this shakes the generators for a few seconds
# each).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzReadComponents -fuzztime 10s ./internal/chrysalis/
	$(GO) test -run '^$$' -fuzz FuzzReadAssignments -fuzztime 10s ./internal/chrysalis/
	$(GO) test -run '^$$' -fuzz FuzzChrysalisDegenerateInput -fuzztime 10s ./internal/chrysalis/
	$(GO) test -run '^$$' -fuzz FuzzReadSAM -fuzztime 10s ./internal/bowtie/
	$(GO) test -run '^$$' -fuzz FuzzAlignDegenerateReads -fuzztime 10s ./internal/bowtie/
	$(GO) test -run '^$$' -fuzz FuzzFlatSet -fuzztime 10s ./internal/kmer/
	$(GO) test -run '^$$' -fuzz FuzzMultimap -fuzztime 10s ./internal/kmer/
	$(GO) test -run '^$$' -fuzz FuzzCountTable -fuzztime 10s ./internal/jellyfish/
	$(GO) test -run '^$$' -fuzz FuzzLoad -fuzztime 10s ./internal/jellyfish/
	$(GO) test -run '^$$' -fuzz FuzzFastaReader -fuzztime 10s ./internal/seq/
	$(GO) test -run '^$$' -fuzz FuzzFastqReader -fuzztime 10s ./internal/seq/
	$(GO) test -run '^$$' -fuzz FuzzNextField -fuzztime 10s ./internal/textio/
	$(GO) test -run '^$$' -fuzz FuzzRoundCodec -fuzztime 10s ./internal/shard/
	$(GO) test -run '^$$' -fuzz FuzzPackedRoundTrip -fuzztime 10s ./internal/seq/
	$(GO) test -run '^$$' -fuzz FuzzHistogram -fuzztime 10s ./internal/stats/

bench:
	$(GO) test -bench=. -benchmem .

# Chrysalis overhead snapshot: the fault-layer and trace-recorder
# benchmarks, recorded as BENCH_chrysalis.json so overhead regressions
# show up in review diffs. Each iteration is one alternating
# baseline/variant pair; 15 pairs give the median and IQR the fields
# report, and arm the fault-layer benchmark's contract check (>= 7
# pairs). The awk pass converts `go test -bench` lines
# ("BenchmarkName-8  N  v unit  v unit ...") into one JSON object per
# benchmark.
BENCH_JSON ?= BENCH_chrysalis.json
bench-chrysalis:
	$(GO) test -run '^$$' -bench 'Chrysalis(WithFaultLayer|TraceRecorder)' -benchtime 15x . \
	| awk 'BEGIN { printf("{\n") } \
	       /^Benchmark/ { if (n++) printf(",\n"); \
	         printf("  \"%s\": {\"iterations\": %s", $$1, $$2); \
	         for (i = 3; i < NF; i += 2) printf(", \"%s\": %s", $$(i+1), $$i); \
	         printf("}") } \
	       END { printf("\n}\n") }' > $(BENCH_JSON)
	@cat $(BENCH_JSON)

# Hot-path kernel snapshot: each flat/frozen kernel benchmarked
# against the map-based reference it replaced — the Chrysalis kernels,
# the packed Bowtie aligner and its seed-table build on deep-shaped
# input, ReadsToTranscripts on deep-shaped input at one chunk worker and
# at GOMAXPROCS, FastaToDeBruijn + Quantify on the same input, the
# k-mer spine's four stages (counting, Inchworm, graph build + compact,
# pair support) on deep- and wide-shaped input, and the external mode's
# disk-partitioned count and stage-boundary files (reads FASTA, SAM
# write and read, k-mer dump load) at deep scale —
# recorded as BENCH_kernels.json so the speedups (and any regressions)
# show up in review diffs. The file is regenerated whole, stamped with
# the host it ran on; the micro-kernels run for 1 s each and the
# whole-stage benchmarks 10 times, so every entry has >= 7 iterations.
KERNEL_MICRO = HarvestWelds|ScanContigForWelds|BuildContigKmerIndex|BuildWeldIndex|AssignRead|CountTableGet|PackedIndexBuild
KERNEL_STAGE = PackedAlignAll|R2TAssign|Quantify|CountPacked|InchwormRun|GraphBuildCompact|PairSupport|DSKCountPacked|ReadFasta|WriteSAM|ReadSAM|LoadDump
KERNEL_BENCH = $(KERNEL_MICRO)|$(KERNEL_STAGE)
KERNEL_PKGS = ./internal/chrysalis/ ./internal/jellyfish/ ./internal/bowtie/ ./internal/inchworm/ ./internal/dbg/ ./internal/butterfly/ ./internal/dsk/ ./internal/seq/
BENCH_KERNELS_JSON ?= BENCH_kernels.json
bench-kernels:
	{ $(GO) test -run '^$$' -bench 'Benchmark($(KERNEL_MICRO))' -benchmem -benchtime 1s $(KERNEL_PKGS) ; \
	  $(GO) test -run '^$$' -bench 'Benchmark($(KERNEL_STAGE))' -benchmem -benchtime 10x $(KERNEL_PKGS) ; } \
	| $(HOST_STAMPED_JSON) > $(BENCH_KERNELS_JSON)
	@cat $(BENCH_KERNELS_JSON)

# The host-stamped form of bench-chrysalis's awk JSON conversion: a
# leading host entry, and each name without its -GOMAXPROCS suffix (the
# host entry carries it).
HOST_STAMPED_JSON = awk -v host="\"num_cpu\": $$(nproc), \"gomaxprocs\": $${GOMAXPROCS:-$$(nproc)}, \"go\": \"$$($(GO) env GOVERSION)\"" \
	      'BEGIN { printf("{\n  \"host\": {%s}", host) } \
	       /^Benchmark/ { sub(/-[0-9]+$$/, "", $$1); \
	         printf(",\n  \"%s\": {\"iterations\": %s", $$1, $$2); \
	         for (i = 3; i < NF; i += 2) printf(", \"%s\": %s", $$(i+1), $$i); \
	         printf("}") } \
	       END { printf("\n}\n") }'

# Pipeline-tail snapshot: the tail worker-pool sweep, recorded as
# BENCH_pipeline.json (wall_* tail seconds plus the deterministic LPT
# makespan model's model_* — see DESIGN.md #9) so tail-scaling
# regressions show up in review diffs; 7 iterations per sweep point,
# host-stamped like bench-kernels.
BENCH_PIPELINE_JSON ?= BENCH_pipeline.json
bench-pipeline:
	$(GO) test -run '^$$' -bench 'BenchmarkPipelineTail' -benchtime 7x -timeout 30m . \
	| $(HOST_STAMPED_JSON) > $(BENCH_PIPELINE_JSON)
	@cat $(BENCH_PIPELINE_JSON)

# Sharded k-mer state snapshot: per-rank resident bytes and lookup
# exchange bytes (exact meters), and the overlapped tile pipeline's
# modelled hidden-fetch fraction (model_*), for the replicated vs
# ShardKmers GraphFromFasta and ReadsToTranscripts at ranks {1,4,16},
# recorded as BENCH_shard.json so the memory-vs-bytes trade shows up in
# review diffs; 7 iterations, host-stamped like bench-kernels.
BENCH_SHARD_JSON ?= BENCH_shard.json
bench-shard:
	$(GO) test -run '^$$' -bench 'BenchmarkShardScaling' -benchtime 7x -timeout 30m . \
	| $(HOST_STAMPED_JSON) > $(BENCH_SHARD_JSON)
	@cat $(BENCH_SHARD_JSON)

# Packed-sequence snapshot: resident-byte ratio of the 2-bit
# representation (ascii/packed must stay ≥ 2), the packing/ingest
# throughput, the word-wise vs byte-loop reverse complement, and the
# packed vs ASCII k-mer extraction (the no-regression pin), recorded
# as BENCH_seq.json so representation regressions show up in review
# diffs. Host-stamped like bench-kernels; the micro-benchmarks run for
# 1 s each (far more than 7 iterations) and dsk's deep-scale count 10
# times.
BENCH_SEQ_JSON ?= BENCH_seq.json
bench-seq:
	{ $(GO) test -run '^$$' -bench 'BenchmarkSeq(PackedResidentBytes|Pack$$|RevComp)' -benchtime 1s ./internal/seq/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkKmerIter' -benchtime 1s ./internal/kmer/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkDSKCountPacked' -benchtime 10x ./internal/dsk/ ; } \
	| $(HOST_STAMPED_JSON) > $(BENCH_SEQ_JSON)
	@cat $(BENCH_SEQ_JSON)

# The end-to-end, layer-attributed assembly benchmark (bench/README.md):
# every BENCHMARK.json workload, each in its own process. bench-check
# compares such a set against the checked-in baseline and exits 1 on a
# regression beyond a metric's bound.
BENCH_E2E_JSON ?= .bench_build/e2e.json
bench-e2e:
	bash bench/run.sh -out $(BENCH_E2E_JSON)

bench-check: bench-e2e
	bash bench/run.sh -compare bench/results/baseline.json $(BENCH_E2E_JSON)

# Formatting gate: every Go file outside bench/ (its own module, with
# its own checks) must be gofmt-clean; gofmt -l names the ones that are
# not.
fmt-check:
	@bad=$$(gofmt -l $$(find . -name '*.go' -not -path './bench/*')); \
	if [ -n "$$bad" ]; then \
	  echo "$$bad"; \
	  echo "fmt-check: not gofmt-clean (run gofmt -w on the files above)"; \
	  exit 1; \
	fi
	@echo "fmt-check: clean"

# ASCII-decode gate for the packed hot paths: sequence payloads in the
# Chrysalis/Inchworm/Jellyfish/Bowtie packages must stay 2-bit packed —
# any .Decode()/.AppendDecode materialisation needs an explicit
# `ascii-ok: <why>` annotation naming the file/result boundary it
# serves. New unannotated conversions fail the build.
LINT_ASCII_PKGS = internal/chrysalis internal/inchworm internal/jellyfish internal/bowtie
lint-ascii:
	@bad=$$(grep -nE '\.Decode\(|\.AppendDecode\(' $$(find $(LINT_ASCII_PKGS) -name '*.go' ! -name '*_test.go') /dev/null | grep -v 'ascii-ok:'; true); \
	if [ -n "$$bad" ]; then \
	  echo "$$bad"; \
	  echo "lint-ascii: sequence payload decoded to ASCII in a packed hot path (annotate '// ascii-ok: <why>' only at a file/result boundary)"; \
	  exit 1; \
	fi
	@echo "lint-ascii: clean"

# Map gate for the k-mer spine: counting, the Inchworm dictionary, the
# de Bruijn graph, dsk's partition pass, pair support, the Chrysalis
# tables, the shard stores and the validation prefilter hold k-mers in
# kmer.FlatSet ids, kmer.Multimap rows and dense arrays; a Go map keyed
# by k-mer may appear in these packages only as a _test.go oracle.
LINT_MAPS_PKGS = internal/jellyfish internal/inchworm internal/dbg internal/dsk internal/butterfly \
	internal/chrysalis internal/shard internal/kmer internal/validate
lint-maps:
	@bad=$$(grep -n 'map\[kmer\.Kmer\]' $$(find $(LINT_MAPS_PKGS) -name '*.go' ! -name '*_test.go') /dev/null; true); \
	if [ -n "$$bad" ]; then \
	  echo "$$bad"; \
	  echo "lint-maps: a Go map keyed by k-mer in a k-mer-spine package (use kmer.FlatSet ids and an array; maps belong in _test.go oracles)"; \
	  exit 1; \
	fi
	@echo "lint-maps: clean"

# The per-stage tools chained by hand must reproduce the pipeline: run
# README.md's own stage-by-stage block (from its `bin/readsim` line to
# the "or everything at once" comment) in a scratch directory under
# bin/ and compare its transcripts.fa, byte for byte, with bin/trinity's
# on the same reads.
chain-check:
	$(GO) build -o bin/ ./cmd/...
	@rm -rf bin/chain-check && mkdir bin/chain-check && ln -s .. bin/chain-check/bin
	@awk '/^bin\/readsim /,/^# or everything at once/' README.md | grep -v '^#' > bin/chain-check/chain.sh
	@cd bin/chain-check && sh -e chain.sh 2> chain.log \
	  && bin/trinity --reads reads.fa --out trinity.fa --nprocs 16 2>> chain.log \
	  && cmp transcripts.fa trinity.fa \
	  || { cat chain.log; echo "chain-check: the README's stage-by-stage chain does not reproduce bin/trinity"; exit 1; }
	@rm -rf bin/chain-check
	@echo "chain-check: stage-by-stage transcripts.fa == bin/trinity's"

verify: build fmt-check lint-ascii lint-maps chain-check
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test -run '^$$' -bench 'Chrysalis(WithFaultLayer|TraceRecorder)' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'Benchmark($(KERNEL_BENCH))' -benchtime 1x $(KERNEL_PKGS)
	$(GO) test -run '^$$' -bench 'BenchmarkPipelineTail' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'BenchmarkShardScaling' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'BenchmarkSeq(PackedResidentBytes|RevComp)|BenchmarkKmerIter' -benchtime 1x ./internal/seq/ ./internal/kmer/

clean:
	rm -rf bin
