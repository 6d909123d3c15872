#!/bin/sh
# Minimal CI gate: formatting, static checks, full build + test, the race
# detector over the packages with real concurrency (the root package's
# sessions and soaks run -short so the gate stays fast), the allocation and
# throughput guards, and fuzz smokes. Mirrors `make ci`. Every stage runs
# from the table at the bottom under a wall-clock budget.
set -eu

cd "$(dirname "$0")/.."

# stage NAME BUDGET_S cmd...: run one CI stage, print its wall seconds, and
# fail it when it runs over its budget — CI time is a number a PR can
# regress, stage by stage.
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

# guard_allocs PATTERN reads `go test -bench -benchmem` output on stdin and
# fails closed: a benchmark matching PATTERN fails if it reports more
# allocs/op than its row in benchdata/alloc_guards.json (one flat
# "name": allocs/op object; a change meant to move a count edits its row)
# or has no row there, and PATTERN fails if it matches no benchmark — a
# renamed benchmark must not silently disarm the gate. Allocation counts
# are deterministic, so unlike ns/op they gate without flaking.
guard_allocs() {
	awk -v pat="$1" -v rows=benchdata/alloc_guards.json '
		BEGIN {
			while ((getline line < rows) > 0)
				if (split(line, f, "\"") == 3) { v = f[3]; gsub(/[^0-9.]/, "", v); limit[f[2]] = v }
		}
		$1 ~ /^Benchmark/ {
			name = $1; sub(/-[0-9]+$/, "", name)
			if (name !~ pat) next
			for (i = 3; i < NF; i++) if ($(i + 1) == "allocs/op") {
				checked++
				if (!(name in limit)) { print name ": " $i " allocs/op, no row in " rows; bad++ }
				else if ($i + 0 > limit[name] + 0) { print name ": " limit[name] " -> " $i " allocs/op"; bad++ }
			}
		}
		END {
			if (!checked) { print "guard_allocs: " pat " matched no benchmark"; exit 1 }
			if (bad) exit 1
			print "allocs/op guard: " checked " benchmark(s) checked, none regressed"
		}'
}

# guard_time PATTERN=DURATION: the same three rules over ns/op against one
# absolute budget given in seconds (e.g. 'SessionThroughput$=30s').
guard_time() {
	secs=${1##*=}
	secs=${secs%s}
	case $secs in ''|*[!0-9]*) echo "guard_time: want PATTERN=<seconds>s, got '$1'"; return 1 ;; esac
	awk -v pat="${1%=*}" -v secs="$secs" '
		$1 ~ /^Benchmark/ {
			name = $1; sub(/-[0-9]+$/, "", name)
			if (name !~ pat) next
			for (i = 3; i < NF; i++) if ($(i + 1) == "ns/op") {
				checked++
				if ($i / 1e9 > secs + 0) { printf "%s: %.1fs/op, budget %ss\n", name, $i / 1e9, secs; bad++ }
			}
		}
		END {
			if (!checked) { print "guard_time: " pat " matched no benchmark"; exit 1 }
			if (bad) exit 1
			print "runtime guard: " checked " benchmark(s) within " secs "s"
		}'
}

check_gofmt() {
	unformatted=$(gofmt -l .)
	if [ -n "$unformatted" ]; then
		echo "gofmt needed on:" >&2
		echo "$unformatted" >&2
		exit 1
	fi
}

# one-path: the collapsed forks stay collapsed. One packet vocabulary, one
# mux, one send path, one receive path: the copying merge, the
# public<->internal packet adapters, the scatter-gather frame encoders, the
# copying receive mode with its config knob, the second Reader accessor, the
# inbox sort, the per-packet self-delivery flatten (FlattenVec:
# self-deliveries share one Conn-held bump buffer) and the optional
# broadcast verb (BroadcastNet/ExchangeBroadcast: a broadcast is Exchange
# over n packets on one payload slice, found by identity, so a wrapper
# that forwards only Exchange loses nothing) were deleted; a fast path
# added beside the path it replaces would bring one of these names back.
one_path() {
	if grep -rnE 'flushCopy|netAdapter|internalNet|AppendFrameVec|BorrowedReads|BytesZC|sortMessages|FlattenVec|ReadFrameInto\(|BroadcastNet|ExchangeBroadcast' --include='*.go' . | grep -v '_test\.go:'; then
		echo "one-path: a deleted fork reappeared in non-test code" >&2
		exit 1
	fi
	# The copying decoder is the fuzz oracle (and a bench probe), nothing
	# else: a production caller would be a second receive path.
	if grep -rnE 'wire\.ReadFrame(Gated)?\(' --include='*.go' . | grep -v '_test\.go:' | grep -vE '^\./(internal/wire|bench)/'; then
		echo "one-path: wire.ReadFrame/ReadFrameGated gained a caller outside internal/wire and bench" >&2
		exit 1
	fi
	# One broadcast rule and one round body. transport.IsBroadcast is the one
	# recogniser of a broadcast; tcpnet's Exchange stages its packets onto
	# ExchangeVec, which encodes every round with EncodeFrameVecs. A second
	# recogniser (tcpnet's per-peer list comparison, a package's own
	# isBroadcast) or Exchange's own staging lists and encoder call would
	# bring one of these back; EncodeFrame, like the copying decoder, is for
	# the bench probes and the tests.
	if grep -rnE 'sharedList|func (\([^)]*\) )?[iI]sBroadcast\(' --include='*.go' . | grep -v '_test\.go:' | grep -v '^\./internal/transport/'; then
		echo "one-path: a second broadcast recogniser reappeared in non-test code; ask transport.IsBroadcast" >&2
		exit 1
	fi
	if grep -rnE '^[[:space:]]+flat[[:space:]]|c\.flat\b' --include='*.go' internal/tcpnet | grep -v '_test\.go:'; then
		echo "one-path: tcpnet's Conn regained a flat staging field; Exchange stages onto ExchangeVec" >&2
		exit 1
	fi
	if grep -rnE '\.EncodeFrame\(' --include='*.go' . | grep -v '_test\.go:' | grep -vE '^\./(internal/wire|bench)/'; then
		echo "one-path: wire's EncodeFrame gained a caller outside internal/wire and bench; a round is encoded by ExchangeVec's EncodeFrameVecs" >&2
		exit 1
	fi
	# One home for "is the base a VecNet?". sessmux asks it once, in New,
	# and ships each tick through the base's ExchangeVec or flattens it
	# through the transport.Flat it keeps. A free ExchangeVec over any Net
	# (a fresh flat buffer every round) or a second module asking the
	# question would bring the deleted fallback back.
	if grep -rnE 'func ExchangeVec\(net|transport\.ExchangeVec\(' --include='*.go' . | grep -v '_test\.go:'; then
		echo "one-path: a free ExchangeVec over any Net reappeared in non-test code; a mux flattens through the transport.Flat it keeps" >&2
		exit 1
	fi
	if grep -rnE '\.\((transport\.)?VecNet\)|case (transport\.)?VecNet\b' --include='*.go' . | grep -v '_test\.go:' | grep -v '^\./internal/sessmux/'; then
		echo "one-path: non-test code outside internal/sessmux asks whether a Net is a VecNet; sessmux is the one place that decides" >&2
		exit 1
	fi
	# One multiplexer with one backpressure bound: parallel composition is
	# sessmux.Parallel, the per-session bound is a fixed 64·n_s, and the
	# benchmark guards are this script's guard_allocs/guard_time. A second
	# mux package, the tuning knobs or the guard binary would bring one of
	# these names back.
	if grep -rnE 'internal/mux|(^|[^[:alnum:]_])mux\.New\(|SetTickBound|SetSessionBound|ShedBySession|cmd/benchjson' --include='*.go' . | grep -v '_test\.go:'; then
		echo "one-path: internal/mux, its knobs or cmd/benchjson reappeared in non-test code; use sessmux.Parallel and ci.sh's guards" >&2
		exit 1
	fi

	# One round close, one simulated runner. internal/sim's runner is the
	# only in-process round engine: channet hands out the Envs of an
	# all-honest run, so a payload copy at a round close (transport.Copied,
	# CopiedBytes) outside internal/sim, or a wait of channet's own, would be
	# a second close. The library's simulated entry points run through
	# sim.Collect and sim.Ghost; internal/testutil is for tests.
	if grep -rnE 'transport\.Copied\(|CopiedBytes\(' --include='*.go' . | grep -v '_test\.go:' | grep -vE '^\./internal/(sim|transport)/'; then
		echo "one-path: a payload copy at a round close outside internal/sim; the simulator's runner has the one round close" >&2
		exit 1
	fi
	if grep -rn 'sync\.Cond' --include='*.go' internal/channet | grep -v '_test\.go:'; then
		echo "one-path: internal/channet declares a sync.Cond; a hub is an adapter over the simulator's runner" >&2
		exit 1
	fi
	if go list -deps . | grep -qx 'convexagreement/internal/testutil'; then
		echo "one-path: the library imports internal/testutil; simulated runs go through sim.Collect and sim.Ghost" >&2
		exit 1
	fi

	# One quorum vocabulary. The option frame lives in internal/wire
	# (Some/None/Option), the value tally, the 0/1 count (per lane of a lanes
	# frame) and the one-sender accessor in internal/transport (Tally,
	# LaneVotes with MajorityBit as its one-lane call, SentBy); the
	# per-package copies survive only as _test.go oracles. A copy coming back
	# brings one of these names with it, or a per-round count map.
	if grep -rnE 'tcMajority|tcBest|supportedValues|votedValues|natWithSupport|encodeTC|encodeOpt|framePresent|frameAbsent' --include='*.go' . | grep -v '_test\.go:'; then
		echo "one-path: a deleted per-package frame or count helper reappeared in non-test code" >&2
		exit 1
	fi
	if grep -rnE 'map\[string\]' --include='*.go' internal/ba internal/baplus internal/bc internal/highcostca | grep -v '_test\.go:'; then
		echo "one-path: a map[string] in the protocol plane; count values with transport.Tally" >&2
		exit 1
	fi
	# One Π_BA+ body. Its a and b candidates are two lanes of one
	# Turpin–Coan + confirm stage (baplus.plus over ba.TurpinCoan's lanes),
	# and the confirm is its one phase-king: Turpin–Coan's grade is a conjunct
	# of the happy bit, not the input of a BA of its own. The sequential "try
	# a, then b" survives only as the _test.go oracle plusRef, the unfolded
	# listing as plusPaper, multivalued BA as a _test.go composition. A second
	# stage brings back a "/b" tag, a tryAgree or a second Turpin–Coan round;
	# the unfolded BA brings back Multivalued, a "/tcba" tag or a second
	# ba.Bits in plus.go.
	if grep -rnE '"/b"|\+ *"/b/' --include='*.go' internal/ba internal/baplus | grep -v '_test\.go:'; then
		echo "one-path: a sequential b stage reappeared in Π_BA+; b is a lane of the one stage" >&2
		exit 1
	fi
	bodies=$(cat internal/ba/*.go internal/baplus/*.go | grep -v '^\s*//' | grep -cE 'func tryAgree|"/tc1"' || true)
	tests=$(cat internal/ba/*_test.go internal/baplus/*_test.go | grep -v '^\s*//' | grep -cE 'func tryAgree|"/tc1"' || true)
	if [ $((bodies - tests)) -gt 1 ]; then
		echo "one-path: internal/ba and internal/baplus have $((bodies - tests)) agree stages (func tryAgree or a Turpin–Coan round), want the one in ba.TurpinCoan" >&2
		exit 1
	fi
	if grep -rnE 'func Multivalued|"/tcba"' --include='*.go' . | grep -v '_test\.go:'; then
		echo "one-path: multivalued BA or its grade BA reappeared in non-test code; Π_BA+ confirms on ba.TurpinCoan's grade" >&2
		exit 1
	fi
	confirms=$(grep -v '^\s*//' internal/baplus/plus.go | grep -c 'ba\.Bits(' || true)
	if [ "$confirms" -gt 1 ]; then
		echo "one-path: internal/baplus/plus.go has $confirms ba.Bits instances, want the one confirming phase-king" >&2
		exit 1
	fi
	# One work set. The tallies and vote counts of every phase-king,
	# Turpin–Coan round and Π_BA+ stage are ba.Work's, refilled round after
	# round and shared by an agreement's instances; a per-call container
	# made beside it would bring one of these back.
	if grep -rnE 'make\(\[\]transport\.Tally|make\(transport\.LaneVotes' --include='*.go' . | grep -v '_test\.go:' | grep -v '^\./internal/ba/work\.go:'; then
		echo "one-path: a per-call Tally or LaneVotes container in non-test code; count in ba.Work's" >&2
		exit 1
	fi
	# One long-value plane. HIGHCOSTCA runs on canonical big-endian
	# naturals in its work set; the math/big listing it replaced is the
	# _test.go oracle runRef. Π_ℓBA+'s dispersal tuples are appended into
	# the tuple buffer of baplus.Buffers; a tuple framed in a fresh writer
	# per round brings encodeTuple or a wire.NewWriter back.
	if grep -rn '"math/big"' --include='*.go' internal/highcostca | grep -v '_test\.go:'; then
		echo "one-path: math/big in internal/highcostca's non-test code; HIGHCOSTCA runs on canonical bytes" >&2
		exit 1
	fi
	if grep -rnE 'encodeTuple|wire\.NewWriter\(' --include='*.go' internal/baplus | grep -v '_test\.go:'; then
		echo "one-path: a per-round fresh dispersal tuple in internal/baplus; append into baplus.Buffers' tuple buffer" >&2
		exit 1
	fi

	# One deployed-cluster harness, one adversary vocabulary. A cluster is
	# assembled, killed, resumed and judged in internal/experiments/harness.go;
	# the operator's loop in cmd/catcp is the only other caller of
	# supervisor.Run. Flood, oversize and burst are internal/adversary's
	# Attack builders; the raw-socket attackers are a _test.go helper of the
	# one battery that uses them. A hand-written copy of any of these brings
	# one of these shapes back.
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
	# One reproduction path. The E-tables are goldens that
	# internal/experiments' TestETables renders at one parameter range; the
	# table printer cmd/cabench and the quick range were deleted, and either
	# coming back would print the tables a second way or at a second range.
	if [ -d cmd/cabench ]; then
		echo "one-path: cmd/cabench reappeared; the E-tables are TestETables' goldens" >&2
		exit 1
	fi
	if grep -rnE '(^|[^[:alnum:]_])quick[[:space:]]+bool' --include='*.go' internal/experiments | grep -v '_test\.go:'; then
		echo "one-path: a quick parameter reappeared in internal/experiments; every table has one range" >&2
		exit 1
	fi

	# One analyzer. internal/lint has one statement interpreter (flow.go),
	# one sync Lock/Unlock recogniser (lockOp in locks.go) and one
	# frame-ownership check; goroutine lifetimes are asserted at run time
	# (TestNoGoroutinesAfterClose). A per-check walker, a second recogniser
	# or the deleted checks coming back bring one of these names with them —
	# or a second copy of the walker's structural arms.
	if grep -rnE 'walkMutexStmt|walkFrameStmt|loWalker|ipWalker|lockOpExpr|goroleak|bufownership-ip' --include='*.go' . | grep -v '_test\.go:' | grep -v '/testdata/'; then
		echo "one-path: a deleted calint walker, recogniser or check reappeared in non-test code" >&2
		exit 1
	fi
	walkers=$(ls internal/lint/*.go | grep -v '_test\.go$' | xargs cat | grep -c 'case \*ast\.TypeSwitchStmt' || true)
	if [ "$walkers" -gt 1 ]; then
		echo "one-path: internal/lint has $walkers statement walkers (case *ast.TypeSwitchStmt), want the one in flow.go" >&2
		exit 1
	fi

	# Every buffer has an owner. The arena's frames live on its own bounded
	# free lists, a codec call's working set is its caller's rs.Scratch, a
	# long value lives in the core.Buffers of the party's run: none is a
	# sync.Pool, which a GC empties and which hides who may still hold a
	# buffer. The one pool is the simulator's payload arenas, which a
	# simulated run takes when it starts and puts back once every party has
	# returned, so no one holds them between runs.
	if grep -rnE '^[^/]*sync\.Pool' --include='*.go' . | grep -v '_test\.go:' | grep -v '^\./internal/sim/sim\.go:'; then
		echo "one-path: a sync.Pool in non-test Go outside the simulator's arenas; give the buffers an owner (wire.Arena's free lists, rs.Scratch, core.Buffers)" >&2
		exit 1
	fi
	# One round send, one tail. tcpnet ships a round with one sendRound —
	# one lock section, one frame per broadcast round or one per peer — into
	# a ring of round slots. The per-peer sendFrame or the per-peer tail maps
	# would bring one of these back.
	if grep -rnE 'func \(c \*Conn\) sendFrame|map\[uint64\]\*wire\.Frame' --include='*.go' internal/tcpnet | grep -v '_test\.go:'; then
		echo "one-path: a per-peer sendFrame or a per-peer tail map reappeared in tcpnet; a round is one sendRound into the round-slot ring" >&2
		exit 1
	fi
	# One goroutine per party. A party's RS.ENCODE/RS.DECODE and MT.BUILD
	# run on its own goroutine: a deployment hosts its parties side by side,
	# so a fan-out across Ps below the transports competes with them, and the
	# internal/pool worker set that did it measured no gain and was deleted.
	# The codec, hashing and protocol packages spawn nothing.
	if [ -e internal/pool ] || grep -rn 'internal/pool' --include='*.go' . | grep -v '_test\.go:'; then
		echo "one-path: internal/pool reappeared; a party's codec and Merkle work runs on its own goroutine" >&2
		exit 1
	fi
	if grep -rnE '(^|[^[:alnum:]_])go (func|[[:alnum:]_.]+\()' --include='*.go' internal/gf16 internal/rs internal/merkle internal/hashing internal/bitstr internal/ba internal/baplus internal/bc internal/core internal/highcostca internal/aa | grep -v '_test\.go:'; then
		echo "one-path: a goroutine spawn in the codec, hashing or protocol plane; a party's work runs on its own goroutine" >&2
		exit 1
	fi
	# One WAL reader. internal/checkpoint reads a copy's two slot files
	# whole and picks its live slot (scanSlots), elects the winning copy
	# (vote) and cuts or rewrites a copy's slot to the winner's prefix
	# (settle), for Open and Scrub alike. The seek-based stream reader,
	# Scrub's own slot walk and rewrite, Open's second rewrite or a second
	# copy vote (another vote function, or another generation-then-records
	# comparison) would bring one of these back.
	if grep -rnE 'offsetReader|walkFrames|scrubCopy|slotRead|readAll|rewriteCopy|repairCopy|finalizeWinner' --include='*.go' internal/checkpoint | grep -v '_test\.go:'; then
		echo "one-path: a deleted WAL reader or rewrite reappeared in internal/checkpoint; read with scanSlots, elect with vote, repair with settle" >&2
		exit 1
	fi
	ckpt=$(ls internal/checkpoint/*.go | grep -v '_test\.go$' | xargs cat | grep -v '^\s*//')
	votes=$(printf '%s\n' "$ckpt" | grep -cE 'func (\([^)]*\) )?[[:alnum:]_]*[vV]ote\(' || true)
	ties=$(printf '%s\n' "$ckpt" | grep -cE '[gG]en == [[:alnum:]_.]*[gG]en &&' || true)
	if [ "$votes" -gt 1 ] || [ "$ties" -gt 1 ]; then
		echo "one-path: internal/checkpoint has $votes vote functions and $ties generation-then-records comparisons, want the one in Log.vote" >&2
		exit 1
	fi
}

# The arm64 build keeps the NEON gf16 kernel and the wire path compiling.
cross_compile() {
	GOARCH=arm64 GOOS=linux go build ./...
	GOARCH=arm64 GOOS=linux go vet ./internal/gf16/ ./internal/wire/
}

# Re-measure the pooled frame round-trip, the admission-gated read, the
# checkpoint append and slot switch on the real filesystem (a round's
# record, and an agreement's end and next instance: 0 allocs/op each), and
# the one mux merge (sessmux,
# which sessmux.Parallel rides too), then hold allocs/op to
# benchdata/alloc_guards.json. A regression here means a zero-copy path grew
# a hidden allocation — e.g. the merge scratch stopped being reused across
# ticks, which would silently re-introduce the per-tick copies that path
# exists to eliminate. The merge row is 64 sessions broadcasting, each one
# transport.All entry; its 129 allocs/op are the 64 goroutines per tick and
# their wait group, nothing of the merge's. The goroutines' first parks
# allocate in the runtime; 1000 ticks amortize that below one alloc/op,
# where 100 would flake. The bitstr rows pin
# Slice/Concat/FillTo at 1 alloc/op (the result) and Compare at 0: a
# per-bit or byte-per-bit scratch coming back into a kernel is an extra
# allocation and fails here. The next four rows pin whole runs and ticks,
# not one layer of one: a phase-king instance over channet on a ba.Work each
# party keeps across ops (what the protocol layer itself allocates: the
# round tags, no lane vector, vote count or send buffer, nothing per round),
# a 64-bit Π_ℤ agreement over channet on a core.Buffers each party keeps
# (no container of any phase-king, Turpin–Coan round or Π_BA+ stage), a
# long one on the same (BenchmarkPiZLongChannet, 2¹⁸-bit inputs at n = 7:
# no dispersal tuple, sent or received witness or HIGHCOSTCA natural is
# allocated, so of what grows with ℓ only GETOUTPUT's output is; a tuple
# buffer, a per-index audit path or a math/big decode that comes back adds
# a whole number of allocs; both Π_ℤ rows count the ops after one warm-up
# agreement on the same hub and sets, so a first op's growth is not in the
# row), the
# same agreement through a SessionMux per party (BenchmarkMuxedPiZ, on the
# set the mux lends each run: a run that went back to growing a fresh set
# adds about 860 allocs/op, and a tick flattened into a fresh buffer and
# packet slice, as before the mux kept its transport.Flat, read 3282), an
# n = 4 tcpnet round (a broadcast, and a per-peer round timed after its
# rejoin tail has filled) and a 64-session sessmux tick over a loopback
# mesh, all at 0 allocs/op — every per-round container is scratch held by its
# owner, so one that goes back to being rebuilt per round or per instance
# shows here as a whole number. Their benchtimes are long for the same
# reason as the merge row's: goroutine parks and the one-time fill of the
# work sets, the rejoin tail and the arena's free lists (which a GC does
# not empty) must amortise below one alloc/op (the recorded counts were
# taken at these same benchtimes). The rs rows encode long_input's value
# (n = 7, k = 5, 256 KiB) into a buffer and a Scratch the caller reuses, at
# 0 allocs/op, and decode it from its last k shares with a reused Scratch,
# at 1 (the payload: that benchmark passes no buffer): a codec buffer that
# goes back to being per call, or a fan-out across Ps, shows here. The
# simulator rows pin an n = 16 all-to-all round and one round of each
# catalogue strategy as the t = 5 corrupt parties of an n = 16 run, all at
# 0 allocs/op: the scheduler refills its inboxes and rushing snapshot
# and every strategy keeps its scratch, so a per-round map, packet slice
# or payload coming back shows as a whole number. 2000 rounds amortise the
# run's set-up and the snapshot's 64 KiB payload chunks below one. The
# transport rows count an n = 16 round of lane frames (agreeing, with
# five deviant senders, and with the five spamming their channels) into
# LaneVotes and into tallies a work set keeps, at 0 allocs/op: counting a
# round reads the inbox in place, a sender's repeats skipped, never
# copied. The wire row rejects one payload of each malformed kind at 0
# allocs/op (each kind is one package-level error; it read 15 when every
# failure formatted its own). BenchmarkAgreeByz_n16 is one whole simulated
# agreement at f = t (n = 16, 4096-bit inputs, five catalogue strategies)
# on the sets the package-level lender keeps; it read 4867 allocs/op when
# each party grew a fresh set and every repeated sender and malformed
# payload cost its reader a copy or an error string, and 689 when each
# seeded strategy built a math/rand source per run instead of reseeding
# its party's source in the simulator's pooled arenas. At 50x it read
# 684-685 over 39 runs (goroutine scheduling moves it by one); the row is
# the highest read.
allocs_guard() {
	{
		go test -run '^$' -bench 'BenchmarkFrameRoundTrip|BenchmarkAdmission|BenchmarkDecodeMalformed' -benchtime 100x -benchmem ./internal/wire/
		go test -run '^$' -bench 'BenchmarkWAL(Append|InstanceSwitch)$' -benchtime 100x -benchmem ./internal/checkpoint/
		go test -run '^$' -bench 'BenchmarkSessmuxFlushVec' -benchtime 1000x -benchmem ./internal/sessmux/
		go test -run '^$' -bench 'BenchmarkBitstr(Slice|Concat|FillTo|Compare)' -benchtime 100x -benchmem ./internal/bitstr/
		go test -run '^$' -bench 'BenchmarkBinaryChannet' -benchtime 1000x -benchmem ./internal/ba/
		go test -run '^$' -bench 'BenchmarkPiZ(Long)?Channet' -benchtime 100x -benchmem ./internal/core/
		go test -run '^$' -bench 'BenchmarkMuxedPiZ$' -benchtime 100x -benchmem .
		go test -run '^$' -bench 'BenchmarkAgreeByz_n16$' -benchtime 50x -benchmem .
		go test -run '^$' -bench 'BenchmarkMeshRound' -benchtime 2000x -benchmem ./internal/tcpnet/
		go test -run '^$' -bench 'BenchmarkSessmuxTickTCP' -benchtime 2000x -benchmem ./internal/sessmux/
		go test -run '^$' -bench 'Benchmark(En|De)codeTo_n7_k5_256KiB$' -benchtime 100x -benchmem ./internal/rs/
		go test -run '^$' -bench 'BenchmarkRoundThroughput_n16$' -benchtime 2000x -benchmem ./internal/sim/
		go test -run '^$' -bench 'BenchmarkHubRound_n16$' -benchtime 2000x -benchmem ./internal/channet/
		go test -run '^$' -bench 'BenchmarkStrategyRound_n16' -benchtime 2000x -benchmem ./internal/adversary/
		go test -run '^$' -bench 'Benchmark(LaneVotesCount|LaneTallies)_n16' -benchtime 1000x -benchmem ./internal/transport/
	} | guard_allocs 'FrameRoundTrip|Admission|DecodeMalformed|WAL(Append|InstanceSwitch)$|SessmuxFlushVec|Bitstr(Slice|Concat|FillTo)|BitstrCompare|BinaryChannet|PiZ(Long)?Channet|MuxedPiZ|AgreeByz_n16|MeshRound|SessmuxTickTCP|(En|De)codeTo_n7_k5_256KiB|RoundThroughput_n16$|HubRound_n16$|StrategyRound_n16|(LaneVotesCount|LaneTallies)_n16'
}

# One full 1024-session wave over the shared loopback mesh, gated on an
# absolute wall-clock budget: a 16k-message tick makes any quadratic
# per-tick work (an insertion sort of the inbox once took this run past
# 15s) blow it.
throughput_guard() {
	go test -run '^$' -bench 'BenchmarkSessionThroughput$' -benchtime 1x -benchmem ./internal/sessmux/ \
		| guard_time 'SessionThroughput$=30s'
}

# 5 s per target: the wire frames (x2), admission, baplus tuples, the
# nested lanes' shared encoding against the per-lane encode, the
# checkpoint WAL and scrub, the bitstr kernels, the quorum vocabulary
# against the per-package functions it replaced (x6), FirstPerSender
# against its set-based oracle, the lane frame, HIGHCOSTCA's trimming and
# ordering of byte naturals against math/big, the session demux's
# merge-join against its map-based oracle, and Definition 2 of ba.Bits at
# n = 4 against the tape adversary (one lane and two). FuzzReadFrame and
# FuzzReadFrameInto share a prefix; go test refuses a -fuzz pattern matching
# more than one target, so each needs an anchored pattern.
fuzz_smoke() {
	while read -r target pkg; do
		go test -run '^$' -fuzz "$target" -fuzztime 5s "$pkg"
	done <<-'EOF'
		FuzzReadFrame$ ./internal/wire/
		FuzzReadFrameInto$ ./internal/wire/
		FuzzAdmission ./internal/wire/
		FuzzDecode ./internal/baplus/
		FuzzNestedLanes ./internal/baplus/
		FuzzInspectState ./internal/checkpoint/
		FuzzScrub ./internal/checkpoint/
		FuzzKernelsVsReference ./internal/bitstr/
		FuzzTally ./internal/transport/
		FuzzFirstPerSender ./internal/transport/
		FuzzLanes ./internal/transport/
		FuzzKingLanes ./internal/ba/
		FuzzBitsTape ./internal/ba/
		FuzzTCPicks ./internal/ba/
		FuzzPlusPicks ./internal/baplus/
		FuzzNatAtLeast ./internal/highcostca/
		FuzzNatOrder ./internal/highcostca/
		FuzzOptionLanes ./internal/wire/
		FuzzDemux ./internal/sessmux/
	EOF
}

# The packages with real concurrency.
race_pkgs='. ./internal/sim/... ./internal/rs/... ./internal/gf16/... ./internal/merkle/... ./internal/wire/... ./internal/tcpnet/... ./internal/channet/... ./internal/faultnet/... ./internal/sessmux/... ./internal/transporttest/... ./internal/asyncnet/... ./internal/checkpoint/... ./internal/errfs/... ./internal/supervisor/... ./internal/adversary/... ./internal/transport/...'

# Wall seconds over two green runs on a 2-core host, one with cached test
# results and one with GOFLAGS=-count=1: gofmt 0, one-path 0, vet 2,
# build 3, calint 3-4, go test 37-42, -race 28-36, cross-compile 2-3,
# allocs guard 8-9, throughput guard 1, fuzz smoke 113-115 (19 targets).
# The budgets leave room for a slower or busier host; calint's is the 60 s
# DESIGN.md §2.7 promises for the whole analyzer (load, type-check, summary
# fixpoint, all eight checks over every package).
stage gofmt              10 check_gofmt
stage "go vet"          120 go vet ./...
stage "go build"        120 go build ./...
stage calint             60 go run ./cmd/calint ./...
stage one-path           10 one_path
stage "go test"         300 go test ./...
stage "go test -race"   300 go test -race -short $race_pkgs
stage cross-compile      60 cross_compile
stage allocs-guard       30 allocs_guard
stage throughput-guard   60 throughput_guard
stage fuzz-smoke        180 fuzz_smoke

echo "CI OK in $(( $(date +%s) - ci_start ))s"
