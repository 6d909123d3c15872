#!/bin/sh
# Minimal CI gate: formatting, static checks, full build + test, and the
# race detector over the packages with real concurrency (the root package's
# sessions and soaks run -short so the gate stays fast). Mirrors `make ci`.
set -eu

cd "$(dirname "$0")/.."

# stage NAME BUDGET_S cmd...: run one CI stage, print its wall seconds, and
# fail it when it runs over its budget — CI time is a number a PR can
# regress, stage by stage. (The multi-command stages below are not wrapped
# yet; ROADMAP item 7 "CI as a budget" drives them from one table.)
ci_start=$(date +%s)
stage() {
	stage_name=$1
	stage_budget=$2
	shift 2
	echo "== $stage_name"
	stage_start=$(date +%s)
	"$@"
	stage_elapsed=$(( $(date +%s) - stage_start ))
	echo "== $stage_name: ${stage_elapsed}s (budget ${stage_budget}s)"
	if [ "$stage_elapsed" -gt "$stage_budget" ]; then
		echo "$stage_name took ${stage_elapsed}s, over its ${stage_budget}s wall-clock budget" >&2
		exit 1
	fi
}

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

stage "go vet" 120 go vet ./...

stage "go build" 120 go build ./...

# The whole analyzer — load, type-check, summary fixpoint, all eight checks
# over every module package — runs once (≈ 4 s with the `go run` build)
# under the 60 s budget DESIGN.md §2.7 promises.
stage calint 60 go run ./cmd/calint ./...

echo "== one-path (the transport stack's collapsed forks stay collapsed)"
# ROADMAP item 2: one packet vocabulary, one mux core, one send path, one
# receive path. The copying merge, the public<->internal packet adapters,
# the scatter-gather frame encoders, the copying receive mode with its
# config knob, the second Reader accessor, the inbox sort and the per-packet
# self-delivery flatten (FlattenVec: self-deliveries share one Conn-held
# bump buffer) were deleted; a fast path added beside the path it replaces
# would bring one of these names back, or define the merge/demux/shed
# helpers a second time in a mux package (bc and rs have unrelated unframe
# functions of their own, hence the *mux* scope).
if grep -rnE 'flushCopy|netAdapter|internalNet|AppendFrameVec|BorrowedReads|BytesZC|sortMessages|FlattenVec|ReadFrameInto\(' --include='*.go' . | grep -v '_test\.go:'; then
	echo "one-path: a deleted fork reappeared in non-test code" >&2
	exit 1
fi
# The copying decoder is the fuzz oracle (and a bench probe), nothing else:
# a production caller would be a second receive path.
if grep -rnE 'wire\.ReadFrame(Gated)?\(' --include='*.go' . | grep -v '_test\.go:' | grep -vE '^\./(internal/wire|bench)/'; then
	echo "one-path: wire.ReadFrame/ReadFrameGated gained a caller outside internal/wire and bench" >&2
	exit 1
fi
for fn in shedInto senderCounts unframe; do
	defs=$(grep -rnE "^func (\([^)]*\) )?$fn\(" --include='*.go' internal/*mux*/ | grep -vc '_test\.go:' || true)
	if [ "$defs" -gt 1 ]; then
		echo "one-path: $fn is defined $defs times under internal/*mux*/, want at most once" >&2
		exit 1
	fi
done

# ISSUE 19: one quorum vocabulary. The option frame lives in internal/wire
# (Some/None/Option), the value tally, the 0/1 count (per lane of a lanes
# frame) and the one-sender accessor in internal/transport (Tally, LaneVotes
# with MajorityBit as its one-lane call, SentBy); the per-package
# copies survive only as _test.go oracles. A copy coming back brings one of
# these names with it, or a per-round count map.
if grep -rnE 'tcMajority|tcBest|supportedValues|votedValues|natWithSupport|encodeTC|encodeOpt|framePresent|frameAbsent' --include='*.go' . | grep -v '_test\.go:'; then
	echo "one-path: a deleted per-package frame or count helper reappeared in non-test code" >&2
	exit 1
fi
if grep -rnE 'map\[string\]' --include='*.go' internal/ba internal/baplus internal/bc internal/highcostca | grep -v '_test\.go:'; then
	echo "one-path: a map[string] in the protocol plane; count values with transport.Tally" >&2
	exit 1
fi

# ISSUE 20: one deployed-cluster harness, one adversary vocabulary. A cluster
# is assembled, killed, resumed and judged in internal/experiments/harness.go;
# the operator's loop in cmd/catcp is the only other caller of supervisor.Run.
# Flood, oversize and burst are internal/adversary's Attack builders; the
# raw-socket attackers are a _test.go helper of the one battery that uses
# them. A hand-written copy of any of these brings one of these shapes back.
if grep -rnE 'e19Attack|internal/netattack|faultnet\.Scenarios' --include='*.go' . | grep -v '_test\.go:'; then
	echo "one-path: a deleted attacker copy, the netattack package or faultnet.Scenarios reappeared in non-test code" >&2
	exit 1
fi
if grep -rnE 'mark := func' --include='*.go' internal/experiments; then
	echo "one-path: a per-table mark closure under internal/experiments; use harness.go's mark" >&2
	exit 1
fi
if grep -rnE 'supervisor\.Run\(' --include='*.go' . | grep -vE '^\./(internal/supervisor/|cmd/catcp/|internal/experiments/harness\.go:)'; then
	echo "one-path: supervisor.Run gained a caller outside internal/supervisor, cmd/catcp and the harness; describe the run as an experiments.Cluster" >&2
	exit 1
fi

# ISSUE 21: one analyzer. internal/lint has one statement interpreter
# (flow.go), one sync Lock/Unlock recogniser (lockOp in locks.go) and one
# frame-ownership check; goroutine lifetimes are asserted at run time
# (TestNoGoroutinesAfterClose). A per-check walker, a second recogniser or
# the deleted checks coming back bring one of these names with them — or a
# second copy of the walker's structural arms.
if grep -rnE 'walkMutexStmt|walkFrameStmt|loWalker|ipWalker|lockOpExpr|goroleak|bufownership-ip' --include='*.go' . | grep -v '_test\.go:' | grep -v '/testdata/'; then
	echo "one-path: a deleted calint walker, recogniser or check reappeared in non-test code" >&2
	exit 1
fi
walkers=$(ls internal/lint/*.go | grep -v '_test\.go$' | xargs cat | grep -c 'case \*ast\.TypeSwitchStmt' || true)
if [ "$walkers" -gt 1 ]; then
	echo "one-path: internal/lint has $walkers statement walkers (case *ast.TypeSwitchStmt), want the one in flow.go" >&2
	exit 1
fi

stage "go test" 300 go test ./...

# The packages with real concurrency.
stage "go test -race" 300 \
	go test -race -short . ./internal/sim/... ./internal/rs/... ./internal/gf16/... ./internal/pool/... ./internal/merkle/... ./internal/wire/... ./internal/tcpnet/... ./internal/channet/... ./internal/faultnet/... ./internal/mux/... ./internal/sessmux/... ./internal/transporttest/... ./internal/asyncnet/... ./internal/checkpoint/... ./internal/errfs/... ./internal/supervisor/... ./internal/adversary/...

echo "== cross-compile (arm64: NEON gf16 kernel + wire path must keep building)"
GOARCH=arm64 GOOS=linux go build ./...
GOARCH=arm64 GOOS=linux go vet ./internal/gf16/ ./internal/wire/

echo "== allocs/op regression guard (zero-copy frame path, admission fast path, default-FS WAL append, mux merge, bitstr kernels, whole ticks)"
# Re-measure the pooled frame round-trip, the admission-gated read, the
# checkpoint append on the real filesystem, and the one mux merge
# (sessmux, which internal/mux rides too), then compare allocs/op against
# benchdata/alloc_guards.json (one flat name -> allocs/op file; a change that
# is meant to move a count edits its row). A regression here means a
# zero-copy path grew a hidden allocation — e.g. the merge scratch stopped
# being reused across ticks, which would silently re-introduce the per-tick
# copies that path exists to eliminate. The merge benchmark spawns 64 goroutines per tick,
# whose first parks allocate in the runtime; 1000 ticks amortize that below
# one alloc/op, where 100 would flake. The bitstr rows pin Slice/Concat/FillTo
# at 1 alloc/op (the result) and Compare at 0: a per-bit or byte-per-bit
# scratch coming back into a kernel is an extra allocation and fails here.
# The last three rows pin whole ticks (ROADMAP item 3), not one layer of
# one: a phase-king instance over channet (what the protocol layer itself
# allocates: no per-round map), an n = 4 tcpnet round and a 64-session
# sessmux tick over a loopback mesh, both at 0 allocs/op — every per-round
# container is scratch held by its owner, so one that goes back to being
# rebuilt per round shows here as a whole number. Their benchtimes are long
# for the same reason as the merge row's: goroutine parks and the frame
# pool's refills after a GC cycle must amortise below one alloc/op (the
# recorded counts were taken at these same benchtimes).
( go test -run '^$' -bench 'BenchmarkFrameRoundTrip|BenchmarkAdmission' -benchtime 100x -benchmem ./internal/wire/ ; \
  go test -run '^$' -bench 'BenchmarkWALAppend$' -benchtime 100x -benchmem ./internal/checkpoint/ ; \
  go test -run '^$' -bench 'BenchmarkSessmuxFlushVec' -benchtime 1000x -benchmem ./internal/sessmux/ ; \
  go test -run '^$' -bench 'BenchmarkBitstr(Slice|Concat|FillTo|Compare)' -benchtime 100x -benchmem ./internal/bitstr/ ; \
  go test -run '^$' -bench 'BenchmarkBinaryChannet' -benchtime 1000x -benchmem ./internal/ba/ ; \
  go test -run '^$' -bench 'BenchmarkMeshRound' -benchtime 20000x -benchmem ./internal/tcpnet/ ; \
  go test -run '^$' -bench 'BenchmarkSessmuxTickTCP' -benchtime 2000x -benchmem ./internal/sessmux/ ) \
	| go run ./cmd/benchjson -guard-allocs 'FrameRoundTrip|Admission|WALAppend$|SessmuxFlushVec|Bitstr(Slice|Concat|FillTo)|BitstrCompare|BinaryChannet|MeshRound|SessmuxTickTCP' > /dev/null

echo "== session throughput guard (1024 sessions x n=16 within 30s)"
# One full 1024-session wave set over the shared loopback mesh, gated on an
# absolute wall-clock budget: a 16k-message tick makes any quadratic
# per-tick work (an insertion sort of the inbox once took this run past
# 15s) blow it.
go test -run '^$' -bench 'BenchmarkSessionThroughput$' -benchtime 1x -benchmem ./internal/sessmux/ \
	| go run ./cmd/benchjson -guard-time 'SessionThroughput$=30s' > /dev/null

echo "== go test -fuzz smoke (wire frames x2, admission, baplus tuples, checkpoint WAL, scrub, bitstr kernels, quorum vocabulary x6)"
# FuzzReadFrame and FuzzReadFrameInto share a prefix; go test refuses a -fuzz
# pattern matching more than one target, so each needs an anchored pattern.
go test -run '^$' -fuzz 'FuzzReadFrame$' -fuzztime 5s ./internal/wire/
go test -run '^$' -fuzz 'FuzzReadFrameInto$' -fuzztime 5s ./internal/wire/
go test -run '^$' -fuzz FuzzAdmission -fuzztime 5s ./internal/wire/
go test -run '^$' -fuzz FuzzDecode -fuzztime 5s ./internal/baplus/
go test -run '^$' -fuzz FuzzInspectState -fuzztime 5s ./internal/checkpoint/
go test -run '^$' -fuzz FuzzScrub -fuzztime 5s ./internal/checkpoint/
go test -run '^$' -fuzz FuzzKernelsVsReference -fuzztime 5s ./internal/bitstr/
# The quorum vocabulary against the per-package functions it replaced.
go test -run '^$' -fuzz FuzzTally -fuzztime 5s ./internal/transport/
go test -run '^$' -fuzz FuzzLanes -fuzztime 5s ./internal/transport/
go test -run '^$' -fuzz FuzzKingLanes -fuzztime 5s ./internal/ba/
go test -run '^$' -fuzz FuzzTCPicks -fuzztime 5s ./internal/ba/
go test -run '^$' -fuzz FuzzPlusPicks -fuzztime 5s ./internal/baplus/
go test -run '^$' -fuzz FuzzNatAtLeast -fuzztime 5s ./internal/highcostca/

echo "CI OK in $(( $(date +%s) - ci_start ))s"
